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

The scene indexes its facets on a uniform xy grid built once: facet ids
sorted by the cell of their padded box's centre, plus one start offset
per cell and a table of the padded boxes in the same order, O(facets)
storage.  Each cell is at least as wide as the widest box, so a ray
tests only the facets of the 3x3 cells around it: it slices the three
row-runs of those cells from the box table, keeps the facets whose box
holds it in one comparison, and fetches the vertices of those alone.
The arithmetic is that of testing every facet, so the result is exact.
The worst case is one very wide facet, which widens every cell until a
ray tests nearly every facet, as an unindexed scan would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import ConfigError
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
            raise ConfigError(
                f"floor_mode must be one of {FLOOR_MODES}, got {self.floor_mode!r}"
            )
        if not math.isfinite(self.table_z):
            raise ConfigError(f"table_z must be finite, got {self.table_z}")
        tris = self.mesh.vertices
        if tris.size == 0:
            raise ConfigError("scene mesh is empty")
        if not np.isfinite(tris).all():
            raise ConfigError("scene mesh contains non-finite coordinates")
        low = tris[:, :, 2].min()
        if low < self.table_z - 1e-6:
            raise ConfigError(
                f"mesh dips {self.table_z - low:.6g} mm below the table plane"
            )
        # The facet index (see the module docstring); `_start[c]` is where
        # cell c's run of facet ids begins in `_ids`.
        boxes = _padded_boxes(tris)
        lo_x, lo_y, hi_x, hi_y = boxes
        limit = math.ceil(math.sqrt(len(tris)))
        self._grid = (*_axis_cells(lo_x, hi_x, limit), *_axis_cells(lo_y, hi_y, limit))
        ox, _, cx, nx, oy, _, cy, ny = self._grid
        keys = (
            np.fmin(((lo_x + hi_x) / 2.0 - ox) / cx, nx - 1).astype(np.int64) * ny
            + np.fmin(((lo_y + hi_y) / 2.0 - oy) / cy, ny - 1).astype(np.int64)
        )
        self._ids = np.argsort(keys, kind="stable").astype(np.int32)
        self._start = np.concatenate(([0], np.bincount(keys, minlength=nx * ny).cumsum()))
        del keys
        # `_boxes` holds the padded boxes in `_ids` order as four rows, lo x,
        # lo y, -hi x and -hi y: a ray at (x, y) is in a box where its
        # column is <= (x, y, -x, -y), one comparison.
        np.negative(boxes[2:], out=boxes[2:])
        self._boxes = np.take(boxes, self._ids, axis=1)


def _padded_boxes(tris: np.ndarray) -> np.ndarray:
    """The xy boxes of the facets, padded by BBOX_PAD, as four rows: lo x,
    lo y, hi x and hi y, a column per facet."""
    boxes = np.empty((4, len(tris)))
    for axis in (0, 1):
        a, b, c = tris[:, 0, axis], tris[:, 1, axis], tris[:, 2, axis]
        boxes[axis] = np.minimum(np.minimum(a, b), c) - BBOX_PAD
        boxes[axis + 2] = np.maximum(np.maximum(a, b), c) + BBOX_PAD
    return boxes


def _axis_cells(lo: np.ndarray, hi: np.ndarray, limit: int) -> tuple:
    """(start, end, cell size, cell count) of one axis of the facet index.

    The cells cover [start, end], the extent of the boxes (lo, hi); there
    are at most `limit` of them, each at least as wide as the widest box.
    An axis too narrow or too wide to divide is one cell of infinite size.
    """
    start, end = float(lo.min()), float(hi.max())
    span, width = end - start, float((hi - lo).max())
    count = int(min(limit, span / width)) if 0.0 < width <= span < math.inf else 1
    return start, end, (max(span / count, width) if count > 1 else math.inf), count


def raycast_down(x: float, y: float, scene: TargetScene):
    """Highest z where the vertical line at (x, y) pierces the mesh.

    Returns None when no triangle covers the point.  Edge and vertex
    grazes count as hits; degenerate (edge-on) triangles never do.
    Only the facets indexed in the 3x3 cells around (x, y) whose padded
    box holds it are tested, with the arithmetic of a test of every
    facet, so the result is the same bit for bit.
    """
    x, y = float(x), float(y)
    ox, x_hi, cx, nx, oy, y_hi, cy, ny = scene._grid
    if not (ox <= x <= x_hi and oy <= y <= y_hi):  # NaN lands here too
        return None
    i = int(min(nx - 1, (x - ox) / cx))
    k = int(min(ny - 1, (y - oy) / cy))
    first, last = max(k - 1, 0), min(k + 1, ny - 1) + 1
    start = scene._start
    runs = [
        slice(start[row + first], start[row + last])
        for row in range(max(i - 1, 0) * ny, min(i + 2, nx) * ny, ny)
    ]
    boxes = np.concatenate([scene._boxes[:, run] for run in runs], axis=1)
    boxed = (boxes <= np.array((x, y, -x, -y))[:, None]).all(axis=0)
    cand = np.concatenate([scene._ids[run] for run in runs])[boxed]
    best = None
    for (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) in scene.mesh.vertices[cand].tolist():
        e1x, e1y, e2x, e2y = x2 - x1, y2 - y1, x3 - x1, y3 - y1
        det = e1x * e2y - e1y * e2x
        if not abs(det) > DEGENERATE_DET:
            continue
        rx, ry = x - x1, y - y1
        u = (rx * e2y - ry * e2x) / det
        v = (ry * e1x - rx * e1y) / det
        if u >= -EDGE_TOL and v >= -EDGE_TOL and u + v <= 1.0 + EDGE_TOL:
            z = z1 + u * (z2 - z1) + v * (z3 - z1)
            if best is None or z > best:
                best = z
    return best


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
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sigma_contact < 0.0:
            raise ConfigError("sigma_contact must be non-negative")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    def error_at(self, contact_index: int) -> float:
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
