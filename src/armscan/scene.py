"""Virtual probing world: target mesh over a table plane, vertical
ray-cast contact queries, and the contact error model.

The probe is a mathematical point descending along -z.  Contact heights
come from exact ray-triangle intersection, never from stepping, so
measurement accuracy is independent of any motion step size.  The error
model adds a per-contact Gaussian term plus a cumulative linear drift,
reproducing a hard-stop trigger whose deviation compounds over a scan.

A contact is a (kind, z_true, z_measured) triple of plain values; NaN
is the only encoding of "no height", for a miss and for a point the arm
cannot reach alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .meshio import TriangleMesh

# A parallel-projection triangle thinner than this is never hit.
DEGENERATE_DET = 1e-12
# Barycentric slack: points this close outside an edge still count as
# hits, so grazing the shared edge of two facets cannot fall in a gap.
EDGE_TOL = 1e-12
# Padding of the per-triangle xy bounding boxes used for prefiltering;
# keeps the prefilter conservative with respect to EDGE_TOL.
BBOX_PAD = 1e-6

FLOOR_MODES = ("table", "skip")

CONTACT_MESH = "mesh"
CONTACT_TABLE = "table"
CONTACT_NONE = "none"
CONTACT_UNREACHABLE = "unreachable"


@dataclass
class TargetScene:
    """An immutable world: one mesh resting on (or above) a table plane.

    floor_mode chooses what a probe miss records: "table" takes the
    table plane as the contact (the physical rig would touch it),
    "skip" records nothing and leaves a hole in the grid.
    """

    mesh: TriangleMesh
    table_z: float = 0.0
    floor_mode: str = "table"

    def __post_init__(self):
        if self.floor_mode not in FLOOR_MODES:
            raise ValueError(
                f"floor_mode must be one of {FLOOR_MODES}, got {self.floor_mode!r}"
            )
        tris = self.mesh.vertices
        if tris.size == 0:
            raise ValueError("scene mesh is empty")
        if not np.isfinite(tris).all():
            raise ValueError("scene mesh contains non-finite coordinates")
        low = tris[:, :, 2].min()
        if low < self.table_z - 1e-6:
            raise ValueError(
                f"mesh dips {self.table_z - low:.6g} mm below the table plane"
            )
        # Precomputed projections for the vectorized raycast.
        self._v1 = tris[:, 0, :]
        self._e1 = tris[:, 1, :2] - tris[:, 0, :2]
        self._e2 = tris[:, 2, :2] - tris[:, 0, :2]
        self._dz1 = tris[:, 1, 2] - tris[:, 0, 2]
        self._dz2 = tris[:, 2, 2] - tris[:, 0, 2]
        det = self._e1[:, 0] * self._e2[:, 1] - self._e1[:, 1] * self._e2[:, 0]
        self._det = det
        self._alive = np.abs(det) > DEGENERATE_DET
        xy = tris[:, :, :2]
        self._box_lo = xy.min(axis=1) - BBOX_PAD
        self._box_hi = xy.max(axis=1) + BBOX_PAD

    def bounds(self):
        return self.mesh.bounds()


def raycast_down(x: float, y: float, scene: TargetScene):
    """Highest z where the vertical line at (x, y) pierces the mesh.

    Returns None when no triangle covers the point.  Edge and vertex
    grazes count as hits; degenerate (edge-on) triangles never do.
    """
    cand = (
        scene._alive
        & (scene._box_lo[:, 0] <= x)
        & (x <= scene._box_hi[:, 0])
        & (scene._box_lo[:, 1] <= y)
        & (y <= scene._box_hi[:, 1])
    )
    if not cand.any():
        return None
    idx = np.nonzero(cand)[0]
    v1 = scene._v1[idx]
    rx = x - v1[:, 0]
    ry = y - v1[:, 1]
    det = scene._det[idx]
    u = (rx * scene._e2[idx, 1] - ry * scene._e2[idx, 0]) / det
    v = (ry * scene._e1[idx, 0] - rx * scene._e1[idx, 1]) / det
    inside = (u >= -EDGE_TOL) & (v >= -EDGE_TOL) & (u + v <= 1.0 + EDGE_TOL)
    if not inside.any():
        return None
    zs = v1[inside, 2] + u[inside] * scene._dz1[idx][inside] + v[inside] * scene._dz2[idx][inside]
    return float(zs.max())


@dataclass(frozen=True)
class NoiseModel:
    """Contact measurement error: z = true + sigma*N(0,1) + drift*index.

    Draws are keyed by (seed, contact_index), so the error at a given
    contact ordinal is a pure function of the configuration: reruns are
    bit-identical and errors at earlier indices never shift later ones.
    """

    sigma_contact: float = 0.0
    drift_per_contact: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("sigma_contact", "drift_per_contact"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sigma_contact < 0.0:
            raise ValueError("sigma_contact must be non-negative")

    @property
    def silent(self) -> bool:
        return self.sigma_contact == 0.0 and self.drift_per_contact == 0.0

    def error_at(self, contact_index: int) -> float:
        if self.silent:
            return 0.0
        gauss = 0.0
        if self.sigma_contact > 0.0:
            rng = np.random.default_rng((self.seed, contact_index))
            gauss = self.sigma_contact * rng.standard_normal()
        return gauss + self.drift_per_contact * contact_index


def probe_contact(
    x: float,
    y: float,
    contact_index: int,
    scene: TargetScene,
    noise: NoiseModel,
) -> tuple:
    """Simulate one touch at (x, y), the contact_index-th of its scan.

    Returns (kind, z_true, z_measured): kind is "mesh" or "table" with
    both heights, or "none" (a skip-mode miss) with both heights NaN.
    """
    z = raycast_down(x, y, scene)
    if z is not None:
        kind = CONTACT_MESH
    elif scene.floor_mode == "table":
        z = scene.table_z
        kind = CONTACT_TABLE
    else:
        return CONTACT_NONE, math.nan, math.nan
    return kind, z, z + noise.error_at(contact_index)
