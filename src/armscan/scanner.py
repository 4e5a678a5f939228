"""Grid scanning: column-major probing of a rectangular lattice and
its tessellation into a height-field mesh.

Probing visits column after column, ascending row within each column,
so the contact ordinal of cell (i, k) is k * n_rows + i (0-based).  The
error model's cumulative drift therefore compounds along the scan
exactly in probe order.

Each completed cell (i, k) with all four corners contacted yields two
triangles with a fixed vertex sequence:

    (Q[i][k], Q[i-1][k], Q[i-1][k-1])
    (Q[i][k], Q[i-1][k-1], Q[i][k-1])

Normals follow the right-hand rule on that sequence, which points up
for positive spacings; flip_normals re-orients every facet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import RobotGeometry, is_reachable
from .meshio import DEGENERATE_NORM, PointCloud, TriangleMesh
from .motion import JointTrace, probe_cycle
from .scene import (
    CONTACT_MESH,
    CONTACT_NONE,
    CONTACT_TABLE,
    CONTACT_UNREACHABLE,
    NoiseModel,
    TargetScene,
)

DEFAULT_SAFE_Z = 60.0


class UnreachableGridError(Exception):
    """Grid points the arm cannot pose over at the safe height.

    Raised before any probing happens; indices are 1-based (row, col)
    pairs.
    """

    def __init__(self, indices, details):
        self.indices = list(indices)
        shown = ", ".join(f"({i}, {k})" for i, k in self.indices[:8])
        if len(self.indices) > 8:
            shown += f", ... {len(self.indices) - 8} more"
        super().__init__(
            f"{len(self.indices)} grid point(s) unreachable at the safe "
            f"height: {shown}; first: {details}"
        )


def _smallest_step(coords: np.ndarray, spacing: float) -> float:
    """Smallest gap between consecutive lattice coordinates (the nominal
    spacing for a single coordinate)."""
    if len(coords) < 2:
        return spacing
    return float(np.diff(coords).min())


@dataclass(frozen=True)
class ScanGrid:
    """Rectangular probe lattice.

    Rows advance along +x by row_spacing, columns along +y by
    col_spacing, from the (x0, y0) corner.  safe_z is the travel height
    between probes.
    """

    x0: float
    y0: float
    n_rows: int
    n_cols: int
    row_spacing: float
    col_spacing: float
    safe_z: float = DEFAULT_SAFE_Z

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("grid needs at least one row and one column")
        if self.row_spacing <= 0.0 or self.col_spacing <= 0.0:
            raise ValueError("grid spacings must be positive")
        # A tessellated facet's cross product is at least the cell area,
        # taken between the coordinates `point` gives: a spacing below
        # the float resolution of the corner rounds away entirely.
        xs, ys = self.axes()
        row_step = _smallest_step(xs, self.row_spacing)
        col_step = _smallest_step(ys, self.col_spacing)
        if not row_step * col_step >= DEGENERATE_NORM:
            raise ValueError(
                f"grid cell {row_step:g} x {col_step:g} mm between probe "
                f"coordinates (spacing {self.row_spacing:g} x "
                f"{self.col_spacing:g} mm) is below {DEGENERATE_NORM:g} mm^2: "
                f"its facets would be degenerate"
            )

    def point(self, i: int, k: int) -> tuple:
        """(x, y) of the 0-based cell (row i, column k)."""
        return (self.x0 + i * self.row_spacing, self.y0 + k * self.col_spacing)

    def axes(self) -> tuple:
        """(x of every row, y of every column) as arrays, rounded exactly
        as `point` rounds them."""
        return (
            self.x0 + np.arange(self.n_rows) * self.row_spacing,
            self.y0 + np.arange(self.n_cols) * self.col_spacing,
        )

    def contact_ordinal(self, i: int, k: int) -> int:
        return k * self.n_rows + i

    def probe_order(self):
        """(i, k) pairs, ascending row within ascending column."""
        for k in range(self.n_cols):
            for i in range(self.n_rows):
                yield i, k

    @property
    def point_count(self) -> int:
        return self.n_rows * self.n_cols


@dataclass
class PointGrid:
    """Measured contact lattice as three (n_rows, n_cols) arrays indexed
    [i, k] like the grid: each cell's contact kind, true height and
    measured height.  A height is NaN where the cell has none (a
    skip-mode miss or an unreachable point)."""

    grid: ScanGrid
    kinds: np.ndarray
    z_true: np.ndarray
    z_measured: np.ndarray

    def count(self, kind: str) -> int:
        return int(np.count_nonzero(self.kinds == kind))

    def coordinates(self) -> np.ndarray:
        """(n_cols, n_rows, 3) measured points in probe order, column
        by column; z is NaN where the cell has no contact."""
        return np.stack([*np.meshgrid(*self.grid.axes()), self.z_measured.T], axis=-1)

    def measured_cloud(self) -> PointCloud:
        pts = self.coordinates().reshape(-1, 3)
        return PointCloud(pts[~np.isnan(pts[:, 2])])


def triangulate(points: PointGrid, flip_normals: bool = False) -> TriangleMesh:
    """Two triangles per fully contacted cell, fixed vertex sequence.

    A cell is skipped when any of its four corners has no height
    (probe miss in skip mode, or an unreachable point).  Emission order
    matches the incremental order a column-by-column scan produces.
    """
    q = points.coordinates()  # q[k, i] is Q[i][k]
    q_ik, q_up = q[1:, 1:], q[1:, :-1]
    q_diag, q_left = q[:-1, :-1], q[:-1, 1:]
    facets = np.stack(
        [
            np.stack([q_ik, q_up, q_diag], axis=-2),
            np.stack([q_ik, q_diag, q_left], axis=-2),
        ],
        axis=2,
    )
    facets = facets[~np.isnan(facets).any(axis=(2, 3, 4))]
    mesh = TriangleMesh.from_vertices(facets)
    if flip_normals:
        # Negated rather than recomputed: recomputing yields +0.0 where
        # negation yields -0.0, and the STL bytes would differ.
        mesh = TriangleMesh(mesh.vertices[:, [0, 2, 1]], -mesh.normals)
    return mesh


@dataclass
class ScanResult:
    points: PointGrid
    mesh: TriangleMesh
    trace: JointTrace

    def summary(self) -> str:
        p, g = self.points, self.points.grid
        lines = [
            f"grid            {g.n_rows} rows x {g.n_cols} cols, "
            f"spacing {g.row_spacing:g} x {g.col_spacing:g} mm",
            f"corner          ({g.x0:g}, {g.y0:g}) mm, safe height {g.safe_z:g} mm",
            f"points probed   {g.point_count}",
            f"mesh contacts   {p.count(CONTACT_MESH)}",
            f"table contacts  {p.count(CONTACT_TABLE)}",
            f"misses          {p.count(CONTACT_NONE)}",
            f"unreachable     {p.count(CONTACT_UNREACHABLE)}",
            f"triangles       {len(self.mesh)}",
            f"trace waypoints {len(self.trace)}",
        ]
        return "\n".join(lines) + "\n"


def run_scan(
    grid: ScanGrid,
    geom: RobotGeometry,
    scene: TargetScene,
    noise: NoiseModel,
    flip_normals: bool = False,
) -> ScanResult:
    """Probe the whole lattice and tessellate the measured heights.

    The safe height must clear the highest mesh vertex (ValueError
    otherwise), and every grid point must be reachable at the safe
    height before any probing starts; otherwise UnreachableGridError
    lists the offenders and no motion is logged.  Per-point descent
    failures during the scan do not abort it: they mark the cell
    unreachable, with NaN heights, and leave holes in the mesh.
    """
    top = scene.bounds()[1][2]
    if grid.safe_z < top:
        raise ValueError(
            f"safe height {grid.safe_z:g} mm is below the scene top at {top:g} mm"
        )
    bad = []
    first_reason = None
    for i, k in grid.probe_order():
        x, y = grid.point(i, k)
        ok, why = is_reachable((x, y, grid.safe_z), geom)
        if not ok:
            bad.append((i + 1, k + 1))
            if first_reason is None:
                first_reason = why
    if bad:
        raise UnreachableGridError(bad, first_reason)

    shape = (grid.n_rows, grid.n_cols)
    kinds = np.full(shape, CONTACT_UNREACHABLE)  # the longest kind name sets the width
    z_true, z_measured = np.full(shape, np.nan), np.full(shape, np.nan)
    legs = []
    last_xy = None
    for i, k in grid.probe_order():
        x, y = grid.point(i, k)
        (kinds[i, k], z_true[i, k], z_measured[i, k]), cycle = probe_cycle(
            x,
            y,
            safe_z=grid.safe_z,
            geom=geom,
            scene=scene,
            noise=noise,
            contact_index=grid.contact_ordinal(i, k),
            from_xy=last_xy,
        )
        legs.append(cycle.angles)
        last_xy = (x, y)

    points = PointGrid(grid, kinds, z_true, z_measured)
    mesh = triangulate(points, flip_normals=flip_normals)
    return ScanResult(points, mesh, JointTrace(np.concatenate(legs)))
