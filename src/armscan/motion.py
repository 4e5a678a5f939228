"""Straight-line Cartesian planning and the touch-probe motion cycle.

Planning is quasi-static: a leg is a uniform chain of position
waypoints at most `STEP` apart (`line_waypoints`, a list of (x, y, z)
float triples) under the tool-down orientation.  `plan_line` solves a
path of such waypoints in one `kinematics.solve_path` call, the closed
form set up once under the tool-down rotation, with no `Pose`, no
rotation check and no array; the path comes back as a list with a tuple
of six angles per waypoint.  No velocity profile exists; the rows are
the sequence an open-loop controller would stream.

A probe cycle is two such lines, lateral travel at the safe height and
descent to the contact, then the retract: the descent's rows replayed
in reverse back to the safe height, with no further IK.  The cycle
takes its contact first, with the error its caller drew for it, and
solves both legs end to end in one `plan_line` call; only when that
fails is the lateral leg solved again alone.  Solved rows go into a
flat table of six floats per row, shared by a whole scan, and a cycle
returns the table row of each of its waypoints.  A waypoint whose bits
equal a safe-height point already in the table (the scan's precheck
solves every grid point there) takes that row instead of a new solve.
Contact heights come from the scene's exact raycast; the descent step
size only shapes the joint log, never the measurement.

Within a cycle the legs share their seam row once.  Cycles are
concatenated whole: each lateral leg starts with the row the previous
cycle ended on, so that row appears twice.  A scan's table and row
index become one `JointTrace`, whose CSV waypoint column is simply the
row number; the CSV formats each table row once.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass, field

import numpy as np

# inverse_kinematics is not called here; it stays bound by name because
# armbench/tracer.py wraps every module's binding of it.
from .kinematics import (  # noqa: F401
    TOOL_DOWN_ROTATION,
    RobotGeometry,
    UnreachableError,
    inverse_kinematics,
    solve_path,
)
from .scene import CONTACT_NONE, CONTACT_UNREACHABLE, TargetScene, probe_contact

# Longest gap (mm) between consecutive waypoints of a leg.
STEP = 5.0

CSV_HEADER = (
    "waypoint,theta1_deg,theta2_deg,theta3_deg,theta4_deg,theta5_deg,theta6_deg\n"
)

_TOOL_DOWN = TOOL_DOWN_ROTATION.tolist()

# A point's bits, for reusing a solved row: `a + 1.0 * (b - a)` need not
# equal `b`, and 0.0 == -0.0 although they may solve apart.
_BITS = struct.Struct("3d").pack
_ROW = struct.Struct("6d").pack


def line_waypoints(start, end) -> list:
    """Uniform interpolation of a segment as (x, y, z) float triples,
    endpoints included, spacing <= STEP.

    A degenerate segment yields the single start point.  The 1e-9
    slack keeps an exact multiple of STEP from picking up a phantom
    extra interval through float rounding.  Waypoint j of n intervals
    is `start + (j / n) * (end - start)`, per coordinate in IEEE
    doubles, the operations of the array form `start + t[:, None] * d`.
    """
    sx, sy, sz = (float(v) for v in start)
    ex, ey, ez = (float(v) for v in end)
    dx, dy, dz = ex - sx, ey - sy, ez - sz
    d = np.array((dx, dy, dz))
    # np.linalg.norm's arithmetic on a vector: a BLAS dot may fuse its
    # products, so a Python sum of squares can round differently
    length = math.sqrt(d.dot(d))
    if length < 1e-12:
        return [(sx, sy, sz)]
    n = max(1, math.ceil(length / STEP - 1e-9))
    return [(sx + t * dx, sy + t * dy, sz + t * dz) for t in [j / n for j in range(n + 1)]]


@dataclass
class JointTrace:
    """Ordered joint-space log: one row of six angles (rad) per waypoint.

    The rows are held as a table of solved rows, (M, 6) or flat, and
    the index of each waypoint's table row; without an index every
    table row is a waypoint, in order.  A flat `array('d')` table is
    viewed, not copied.  The CSV numbers the waypoints by row, from 0,
    in degrees.
    """

    table: np.ndarray = field(default_factory=lambda: np.zeros((0, 6)))
    index: np.ndarray = None

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=float).reshape(-1, 6)
        if self.index is None:
            self.index = np.arange(len(self.table))
        self.index = np.asarray(self.index, dtype=np.intp)

    @property
    def angles(self) -> np.ndarray:
        """The (N, 6) rows in waypoint order."""
        return self.table[self.index]

    def __len__(self) -> int:
        return len(self.index)

    def to_csv(self) -> str:
        # Waypoints repeat rows (a retract replays its descent): format
        # each table row once and write every waypoint by its row.
        texts = [
            ",%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n" % tuple(row)
            for row in np.degrees(self.table).tolist()
        ]
        return CSV_HEADER + "".join(
            [f"{i}{texts[j]}" for i, j in enumerate(self.index.tolist())]
        )


def plan_line(waypoints, geom: RobotGeometry) -> list:
    """Solve tool-down IK for every waypoint of a path in one call.

    `waypoints` is a sequence of (x, y, z) float triples (mm), such as
    `line_waypoints` gives.  Returns a list with a tuple of six joint
    angles per waypoint.  Raises UnreachableError (JointLimitError past
    a joint stop) naming the first offending waypoint's index and
    position.
    """
    return solve_path(waypoints, _TOOL_DOWN, geom)


def append_rows(table: array, rows) -> int:
    """Append rows of six floats to the flat `table`; returns the first
    one's row number.  Packed to bytes and added in one piece: about
    three times faster than extending the array float by float."""
    first = len(table) // 6
    table.frombytes(b"".join([_ROW(*row) for row in rows]))
    return first


def _solve_legs(legs, known: dict, table: array, geom: RobotGeometry) -> list:
    """Table rows of every waypoint of `legs`, one list per leg.

    A leg's first or last waypoint whose bits are a key of `known`
    takes that row; every other waypoint is solved, all legs in one
    `plan_line` call, and appended to `table` in order.  A failed solve
    raises before the table changes.
    """
    todo, ends = [], []
    for leg in legs:
        head = known.get(_BITS(*leg[0])) if leg else None
        tail = known.get(_BITS(*leg[-1])) if len(leg) > 1 else None
        todo += leg[head is not None : len(leg) - (tail is not None)]
        ends.append((head, tail))
    row = append_rows(table, plan_line(todo, geom))
    rows = []
    for leg, (head, tail) in zip(legs, ends):
        n = len(leg) - (head is not None) - (tail is not None)
        middle = list(range(row, row + n))
        rows.append(([] if head is None else [head]) + middle + ([] if tail is None else [tail]))
        row += n
    return rows


def probe_cycle(
    x: float,
    y: float,
    *,
    safe_z: float,
    geom: RobotGeometry,
    scene: TargetScene,
    error: float,
    table: array,
    from_xy=None,
    safe_rows=(None, None),
) -> tuple:
    """One touch: travel over (x, y), descend to contact, retract.

    `error` is the contact's measurement error, drawn by the caller
    (`NoiseModel.errors` at the contact's ordinal).  `table` is the
    flat `array('d')` of solved rows, six angles (rad) each, that the
    cycle appends its new rows to.  `safe_rows` holds the table rows
    already solved for (*from_xy, safe_z) and (x, y, safe_z), or None
    for a point not in the table; a leg end whose bits equal such a
    point takes its row instead of a solve.  Returns
    ((kind, z_true, z_measured), rows), the contact as `probe_contact`
    gives it and the table row of each of the cycle's waypoints.  The
    waypoints start and end at the safe height; seam waypoints shared
    between legs appear once.  The contact is taken first; the descent
    stops at the table on a miss (kind "none") and at the measured
    height otherwise.  The waypoints left to solve, of both legs, are
    then solved in one `plan_line` call, even when none is left; the
    retract is the descent's rows in reverse, so only the lateral leg
    or the descent can fail.  A measured height that is not finite, or
    lies more than STEP past the tool-down tip band, fails with no
    descent planned.  A failed cycle's contact is (CONTACT_UNREACHABLE,
    nan, nan), a kind distinct from a no-contact miss, and its rows are
    only the lateral travel, re-planned alone and still ending at the
    safe height, or nothing if that leg fails.
    """
    contact = probe_contact(x, y, scene, error)
    z_stop = scene.table_z if contact[0] == CONTACT_NONE else contact[2]
    here = (x, y, safe_z)
    lateral = [] if from_xy is None else line_waypoints((*from_xy, safe_z), here)
    known = {}
    if from_xy is not None and safe_rows[0] is not None:
        known[_BITS(*from_xy, safe_z)] = safe_rows[0]
    if safe_rows[1] is not None:
        known[_BITS(*here)] = safe_rows[1]
    # A tool-down tip at z_stop puts the wrist center z_stop + d6 - d1
    # above the shoulder, out of reach past l2 + d4: that descent fails
    # anyway, and toward a huge drifted height it would plan unboundedly
    # many waypoints.  STEP of slack leaves the boundary to the IK.  A
    # NaN height fails the comparison too.
    reach = geom.l2 + geom.d4 + STEP
    if -reach <= z_stop + geom.d6 - geom.d1 <= reach:
        descent = line_waypoints(here, (x, y, z_stop))
        try:
            lateral_rows, descend = _solve_legs((lateral, descent), known, table, geom)
        except UnreachableError:
            pass
        else:
            # Descent row 0 has a row too, though it sits where the
            # lateral leg ends: the retract ends on it, and the lateral's
            # last waypoint need not equal it bit for bit.
            retract = descend[-2::-1]  # back up the same line, less the contact row
            return contact, lateral_rows + (descend[1:] if lateral else descend) + retract

    try:
        (lateral_rows,) = _solve_legs((lateral,), known, table, geom)
    except UnreachableError:
        lateral_rows = []
    return (CONTACT_UNREACHABLE, math.nan, math.nan), lateral_rows
