"""Grid scanning: column-major probing of a rectangular lattice and
its tessellation into a height-field mesh.

Probing visits column after column, ascending row within each column,
so the contact ordinal of cell (i, k) is k * n_rows + i (0-based).  The
error model's cumulative drift therefore compounds along the scan
exactly in probe order.  Before any probing, a precheck solves the grid
points, one kernel call per column that records failures: a failing
grid point is an offender, and no leg is built.  Their rows open the
scan's one table of solved rows, grid point (i, k) at row k * n_rows + i.
Every contact's error is drawn in one `NoiseModel.errors` batch.  Then
per column one kernel call solves the lateral legs into its cells (a
failing point fails its cell's leg), and each cell takes one raycast
and one probe cycle, which only descends.  A leg end or a descent's
start with a grid point's bits takes that point's row, so each grid
point is solved once.  The trace is that table and the row index of
every waypoint, not a copy of the rows.

Each completed cell (i, k) with all four corners contacted yields two
triangles with a fixed vertex sequence:

    (Q[i][k], Q[i-1][k], Q[i-1][k-1])
    (Q[i][k], Q[i-1][k-1], Q[i][k-1])

Normals follow the right-hand rule on that sequence, which points up
for positive spacings; flip_normals re-orients every facet.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

# is_reachable is not called here; it stays bound by name because
# armbench/tracer.py wraps every module's binding of it.
from .kinematics import ConfigError, RobotGeometry, UnreachableError, is_reachable  # noqa: F401
from .kinematics import _path_kernel, failure_error
from .meshio import DEGENERATE_NORM, PointCloud, TriangleMesh
from .motion import _TOOL_DOWN, JointTrace, append_rows, leg_between, probe_cycle
from .scene import (
    CONTACT_MESH,
    CONTACT_NONE,
    CONTACT_TABLE,
    CONTACT_UNREACHABLE,
    NoiseModel,
    TargetScene,
)

DEFAULT_SAFE_Z = 60.0
# Most probe points a grid may have.  A scan's time and memory grow
# with its points, so this bound keeps a job within minutes and a
# fraction of a host's memory; a mistyped 100000 x 100000 grid would
# otherwise spend hours in the precheck before any motion.
MAX_GRID_POINTS = 1_000_000


class UnreachableGridError(UnreachableError):
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
        for name in ("x0", "y0", "row_spacing", "col_spacing", "safe_z"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n_rows < 1 or self.n_cols < 1:
            raise ConfigError("grid needs at least one row and one column")
        if self.n_rows * self.n_cols > MAX_GRID_POINTS:
            raise ConfigError(
                f"grid of {self.n_rows} rows x {self.n_cols} cols is "
                f"{self.n_rows * self.n_cols} points, over the bound of "
                f"{MAX_GRID_POINTS}"
            )
        if self.row_spacing <= 0.0 or self.col_spacing <= 0.0:
            raise ConfigError("grid spacings must be positive")
        # Coordinates grow along each axis, so the far corner is the
        # largest; it is taken with the arithmetic of `axes`, in Python
        # floats, which overflow to inf without a warning.
        far_x = self.x0 + (self.n_rows - 1) * self.row_spacing
        far_y = self.y0 + (self.n_cols - 1) * self.col_spacing
        if not (math.isfinite(far_x) and math.isfinite(far_y)):
            raise ConfigError(
                f"grid coordinates overflow: the far corner ({self.n_rows}, "
                f"{self.n_cols}) is at ({far_x:g}, {far_y:g}) mm"
            )
        # A tessellated facet's cross product is at least the cell area,
        # taken between the coordinates `axes` gives: a spacing below
        # the float resolution of the corner rounds away entirely.
        xs, ys = self.axes()
        row_step = _smallest_step(xs, self.row_spacing)
        col_step = _smallest_step(ys, self.col_spacing)
        if not row_step * col_step >= DEGENERATE_NORM:
            raise ConfigError(
                f"grid cell {row_step:g} x {col_step:g} mm between probe "
                f"coordinates (spacing {self.row_spacing:g} x "
                f"{self.col_spacing:g} mm) is below {DEGENERATE_NORM:g} mm^2: "
                f"its facets would be degenerate"
            )

    def axes(self) -> tuple:
        """(x of every row, y of every column) as arrays."""
        return (
            self.x0 + np.arange(self.n_rows) * self.row_spacing,
            self.y0 + np.arange(self.n_cols) * self.col_spacing,
        )

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

    The safe height must clear the highest mesh vertex, and the table
    plane must not lie below the lowest tip height a tool-down pose can
    take, `d1 - l2 - d4 - d6` (ConfigError otherwise: a miss would plan
    a descent through waypoints it can never reach).  Every grid
    point must be reachable at the safe height before any probing
    starts, solved one lattice column per kernel call; otherwise
    UnreachableGridError lists the offenders, in probe order, with the
    first one's reason, and no leg is built nor motion logged.  Those
    rows start the table of solved rows.  Each column's lateral legs are
    solved in one call just before its cycles, which reuse the table's
    rows and append their descents to it; the trace joins the cycles'
    row indices.  The contact errors are drawn once for the whole lattice,
    in probe order, and each cycle gets its own.
    Per-point failures during the scan, of a lateral leg or a descent,
    do not abort it: they mark the cell unreachable, with NaN heights,
    and leave holes in the mesh.
    """
    if grid.safe_z < scene.top:
        raise ConfigError(
            f"safe height {grid.safe_z:g} mm is below the scene top at {scene.top:g} mm"
        )
    lowest = geom.d1 - geom.l2 - geom.d4 - geom.d6
    if scene.table_z < lowest:
        raise ConfigError(
            f"table plane at {scene.table_z:g} mm is below the lowest tool-down "
            f"tip height {lowest:g} mm"
        )
    xs, ys = (a.tolist() for a in grid.axes())
    safe_z, n_rows, count = grid.safe_z, grid.n_rows, grid.point_count
    # The grid points, one kernel call per column.  While none fails,
    # their rows open the table: grid point (i, k) at row k * n_rows + i.
    table, bad, reason = array("d"), [], None
    for k, y in enumerate(ys):
        rows, failures = [], []
        _path_kernel([(x, y, safe_z) for x in xs], _TOOL_DOWN, geom, rows, failures)
        for i, failure in failures:
            bad.append((i + 1, k + 1))
            reason = reason or str(failure_error(failure, geom))
        if not bad:
            append_rows(table, rows)
    if bad:
        raise UnreachableGridError(bad, reason)

    # every contact's error, in probe order: the probe index is the ordinal
    errors = noise.errors(range(count))
    shape = (n_rows, grid.n_cols)
    kinds = np.full(shape, CONTACT_UNREACHABLE)  # the longest kind name sets the width
    z_true, z_measured = np.full(shape, np.nan), np.full(shape, np.nan)
    index = array("q")
    for k, y in enumerate(ys):
        first = k * n_rows  # the column's first contact ordinal
        # The lateral legs into the column's cells, each from the previous
        # grid point, in one kernel call; a failing point fails its leg.
        legs = []
        for i, x in enumerate(xs):
            here = (x, y, safe_z)
            # `start` is the previous grid point; the scan's first cell has no leg
            legs.append(leg_between(start, here) if i or k else ([], False, False))
            start = here
        rows, failures = [], []
        _path_kernel([p for leg, _, _ in legs for p in leg], _TOOL_DOWN, geom, rows, failures)
        # per cell, the table rows of its leg: a left-out end takes its grid
        # point's row, the previous one's (c - 1) or its own (c)
        failed, kept, laterals, p = {j for j, _ in failures}, [], [], 0
        for c, (leg, head, tail) in enumerate(legs, first):
            q, at = p + len(leg), len(table) // 6 + len(kept)
            if failed.isdisjoint(range(p, q)):
                laterals.append([c - 1] * head + [*range(at, at + q - p)] + [c] * tail)
                kept += rows[p:q]
            else:
                laterals.append(None)
            p = q
        append_rows(table, kept)
        contacts = []
        cells = zip(xs, errors[first : first + n_rows].tolist(), laterals)
        for c, (x, error, lateral) in enumerate(cells, first):
            contact, rows = probe_cycle(
                x,
                y,
                safe_z=safe_z,
                geom=geom,
                scene=scene,
                error=error,
                table=table,
                here_row=c,
                lateral=lateral,
            )
            contacts.append(contact)
            index.fromlist(rows)
        # one slice per array and column: a column's contacts, never the
        # whole grid's, are held as Python objects
        kinds[:, k], z_true[:, k], z_measured[:, k] = zip(*contacts)

    points = PointGrid(grid, kinds, z_true, z_measured)
    mesh = triangulate(points, flip_normals=flip_normals)
    return ScanResult(points, mesh, JointTrace(table, index))
