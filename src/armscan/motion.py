"""Straight-line Cartesian planning and the touch-probe motion cycle.

Planning is quasi-static: a leg is a uniform chain of position
waypoints at most `STEP` apart (`line_waypoints`, a list of (x, y, z)
float triples) under the tool-down orientation.  `plan_line` solves a
path of such waypoints in one `kinematics.solve_path` call under the
tool-down rotation, with no `Pose`, no rotation check and no array; the
path comes back as a list with a tuple of six angles per waypoint.  The
kernel works out the yaw and wrist angles once per run of waypoints
over the same (x, y), so a descent, one such run, costs its elbow
solves alone.  No velocity profile exists; the rows are the sequence
an open-loop controller would stream.

A probe cycle descends over a grid point to the contact and retracts:
the descent's rows replayed in reverse back to the safe height, with no
further IK.  The lateral leg that brings it there, at the safe height,
depends on no contact, so the scan solves a column's legs in one call
before the column's cycles and hands each cycle its leg's rows;
`leg_between` gives such a leg less its ends with a grid point's bits.
The cycle takes its contact first, with the error its caller drew for
it, and solves its descent in one `plan_line` call.
Solved rows go into a flat table of six floats per row, shared by a
whole scan, and a cycle returns the table row of each of its
waypoints; a descent's first waypoint, with the grid point's bits,
takes its row.
Contact heights come from the scene's exact raycast; the descent step
size only shapes the joint log, never the measurement.

Within a cycle the legs share their seam row once.  Cycles are
concatenated whole: each lateral leg starts with the row the previous
cycle ended on, so that row appears twice.  A scan's table and row
index become one `JointTrace`, whose CSV waypoint column is simply the
row number.

The CSV is written in numpy passes over blocks of `CSV_BLOCK` rows,
with the bytes of Python's `%.6f`.  Each table row is formatted once,
into 72 bytes: per angle a comma, the sign, the whole degrees and the
point from a 1000-entry table of `b"%3d."`, and the six fraction
digits from three lookups in a table of digit pairs, all blanks held
as NUL.  The rounding is exact: below 1000 degrees, `v * 1e6` is within
6e-8 of its exact value, so its nearest integer is the correctly
rounded one unless it lies within `TIE_BAND` of a half; those few
values are rounded one by one by `%.6f` itself.  Each waypoint is then
its number, from the same tables, and its row's bytes, and one
`translate` per block drops the NUL pads.  The blocks are yielded one
by one (`JointTrace.csv_blocks`), so a writer streams them into its
file and never holds the whole text.  A table holding a value that
is not finite or prints as 1000 degrees or more, which no scan makes
(the joint limits stop every angle near 180), is written by the `%`
operator row by row instead.
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

# Rows of the trace CSV per numpy pass.
CSV_BLOCK = 4096
# Distance from a half within which `v * 1e6`, off its exact value by
# under 6e-8 for |v| < 1000, may round the other way: `%.6f` decides.
TIE_BAND = 1e-6
# `b"%3d."` of 0..999, and the digit pairs `b"%02d"` of 0..99, blanks
# as NUL
_WHOLE = np.frombuffer(
    b"".join([b"%3d." % k for k in range(1000)]).replace(b" ", b"\0"), dtype="<u4"
)
_PAIRS = np.frombuffer(b"".join([b"%02d" % k for k in range(100)]), dtype="<u2")
# One angle of a CSV row: a comma, "-" or NUL, the whole part and the
# point, three pairs of fraction digits
_ANGLE = np.dtype(
    [("comma", "u1"), ("sign", "u1"), ("whole", "<u4"), ("f0", "<u2"), ("f1", "<u2"), ("f2", "<u2")]
)

_TOOL_DOWN = TOOL_DOWN_ROTATION.tolist()

# A point's bits, for reusing a solved row: `a + 1.0 * (b - a)` need not
# equal `b`, and 0.0 == -0.0 although they may solve apart.
_BITS = struct.Struct("3d").pack
_ROW = struct.Struct("6d").pack


def leg_length(dx: float, dy: float, dz: float) -> float:
    """Length of the vector (dx, dy, dz), bit for bit np.linalg.norm's."""
    if dy == 0.0 == dz or dx == 0.0 == dz or dx == 0.0 == dy:
        # one non-zero component at most, as on every descent: the other
        # squares are exact zeros, so in any order, fused or not, the sum
        # is that one rounded square
        return math.sqrt(dx * dx + dy * dy + dz * dz)
    # np.linalg.norm's arithmetic on a vector: a BLAS dot may fuse its
    # products, so a Python sum of squares can round differently
    d = np.array((dx, dy, dz))
    return math.sqrt(d.dot(d))


def line_waypoints(start, end) -> list:
    """Uniform interpolation of a segment as (x, y, z) float triples,
    endpoints included, spacing <= STEP.

    A degenerate segment yields the single start point.  The 1e-9
    slack keeps an exact multiple of STEP from picking up a phantom
    extra interval through float rounding.  Waypoint j of n intervals
    is `start + (j / n) * (end - start)`, per coordinate in IEEE
    doubles, the operations of the array form `start + t[:, None] * d`.
    A vertical leg, dx and dy zero, works its x and y out once, and a
    leg along x, dy and dz zero, its y and z: each `t * d` of a zero d
    with t >= 0 is the zero `0.0 * d`, with d's sign.
    """
    (sx, sy, sz), (ex, ey, ez) = start, end
    sx, sy, sz = float(sx), float(sy), float(sz)
    dx, dy, dz = float(ex) - sx, float(ey) - sy, float(ez) - sz
    length = leg_length(dx, dy, dz)
    if length < 1e-12:
        return [(sx, sy, sz)]
    n = max(1, math.ceil(length / STEP - 1e-9))
    if dx == 0.0 == dy:
        x, y = sx + 0.0 * dx, sy + 0.0 * dy
        return [(x, y, sz + j / n * dz) for j in range(n + 1)]
    if dy == 0.0 == dz:
        y, z = sy + 0.0 * dy, sz + 0.0 * dz
        return [(sx + j / n * dx, y, z) for j in range(n + 1)]
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

    def csv_blocks(self):
        """The trace as CSV, in ASCII byte blocks: the header, then per
        waypoint its number and its six angles in degrees, `%.6f` each,
        `CSV_BLOCK` waypoints a block.

        Waypoints repeat rows (a retract replays its descent), so each
        table row is formatted once, `CSV_BLOCK` rows per pass, and every
        waypoint is written by its row; the module docstring gives the
        digit tables and the tie band.  Only the formatted rows and one
        block are held at a time, never the whole text.
        """
        table, index = self.table, self.index
        yield CSV_HEADER.encode()
        # np.degrees scales by one positive constant, so it keeps order
        top = np.degrees(max(table.max(), -table.min())) if len(table) else math.nan
        if not float("%.6f" % top) < 1000.0:
            # past the whole-part table (or no rows): the `%` operator
            texts = [
                ",%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n" % tuple(row)
                for row in np.degrees(table).tolist()
            ]
            for a in range(0, len(index), CSV_BLOCK):
                picks = enumerate(index[a : a + CSV_BLOCK].tolist(), a)
                yield "".join([f"{i}{texts[j]}" for i, j in picks]).encode()
            return
        rows = np.empty((len(table), 6), dtype=_ANGLE)
        for a in range(0, len(table), CSV_BLOCK):
            _format_angles(np.degrees(table[a : a + CSV_BLOCK]), rows[a : a + CSV_BLOCK])
        rows = rows.view(np.uint8).reshape(len(table), 72)
        for a in range(0, len(index), CSV_BLOCK):
            b = min(a + CSV_BLOCK, len(index))
            digits = waypoint_digits(a, b)
            width = digits.shape[1]
            text = bytearray((b - a) * (width + 73))
            view = np.frombuffer(text, np.uint8).reshape(b - a, width + 73)
            view[:, :width] = digits
            view[:, width:-1] = rows[index[a:b]]
            view[:, -1] = ord("\n")
            yield text.translate(None, b"\0")

    def to_csv(self) -> str:
        """The whole CSV of `csv_blocks` as one string."""
        data = bytearray()
        for block in self.csv_blocks():
            data += block
        return data.decode("ascii")


def _format_angles(deg: np.ndarray, out: np.ndarray) -> None:
    """Write `%.6f` of every entry of `deg` into the `_ANGLE` records
    `out` of the same shape; every |value| must print below 1000."""
    p = deg * 1e6
    q = np.rint(p)
    tie = np.abs(np.abs(p - q) - 0.5) < TIE_BAND
    np.abs(q, out=q)
    if tie.any():
        q[tie] = [abs(int(("%.6f" % v).replace(".", ""))) for v in deg[tie].tolist()]
    frac = q.astype(np.int32)
    whole = frac // 1000000
    frac -= whole * 1000000
    out["comma"] = ord(",")
    # signbit, not < 0: -0.0 and negatives that round to 0 print "-0.000000"
    out["sign"] = np.signbit(deg) * np.uint8(ord("-"))
    out["whole"] = _WHOLE[whole]
    pair = frac // 10000
    out["f0"] = _PAIRS[pair]
    frac -= pair * 10000
    pair = frac // 100
    out["f1"] = _PAIRS[pair]
    frac -= pair * 100
    out["f2"] = _PAIRS[frac]


def waypoint_digits(start: int, stop: int) -> np.ndarray:
    """The numbers start..stop-1 as an (n, 3g) uint8 array of decimal
    digits, right-aligned, NUL-padded on the left: g groups of three
    digits from the `b"%3d."` table, zero-filled below a non-zero group
    and blank above the first one."""
    numbers = np.arange(start, stop, dtype=np.int64)
    n, groups = len(numbers), (len(str(max(stop - 1, 0))) + 2) // 3
    digits = np.empty((n, groups), dtype="<u4")
    for g in range(groups):
        head = numbers // 1000 ** (groups - 1 - g)  # this group and those above
        # OR-ing "000" into "%3d" turns its NUL blanks into zeros
        group = _WHOLE[head % 1000] | np.where(head >= 1000, np.uint32(0x303030), np.uint32(0))
        if g < groups - 1:
            group *= head > 0
        digits[:, g] = group
    return digits.view(np.uint8).reshape(n, groups, 4)[:, :, :3].reshape(n, 3 * groups)


def leg_between(start, end) -> tuple:
    """`line_waypoints(start, end)` less its end waypoints that carry the
    bits of `start` (the first) or `end` (the last, of two or more),
    whose solved rows those points' own rows stand for.  Returns
    (waypoints, head, tail), head and tail true where an end was left
    out."""
    leg = line_waypoints(start, end)
    head = _BITS(*leg[0]) == _BITS(*start)
    tail = len(leg) > 1 and _BITS(*leg[-1]) == _BITS(*end)
    return leg[head : len(leg) - tail], head, tail


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


def probe_cycle(
    x: float,
    y: float,
    *,
    safe_z: float,
    geom: RobotGeometry,
    scene: TargetScene,
    error: float,
    table: array,
    here_row: int,
    lateral,
) -> tuple:
    """One touch: descend over (x, y) to contact and retract.

    `error` is the contact's measurement error, drawn by the caller.
    `table` is the flat `array('d')` of solved rows, six angles (rad)
    each, that the cycle appends its new rows to; `here_row` is the row
    of (x, y, safe_z) in it.  `lateral` holds the table rows of the leg
    that brought the probe over (x, y) at the safe height: [] for none,
    None for a leg that failed.  Returns ((kind, z_true, z_measured),
    rows), the contact as `probe_contact` gives it and the table row of
    each waypoint of the lateral leg, the descent and the retract.  The
    contact is taken first, even after a failed leg.  The descent stops
    at the table on a miss (kind "none") and at the measured height
    otherwise; its first waypoint, if it has the bits of (x, y, safe_z),
    takes `here_row`, and its other waypoints are solved in one
    `plan_line` call, even when none is left.  The retract is the
    descent's rows in reverse, less the contact row.  A measured height
    that is not finite, or lies more than STEP past the tool-down tip
    band, fails with no descent planned.  A failed cycle's contact is
    (CONTACT_UNREACHABLE, nan, nan), a kind distinct from a no-contact
    miss, and its rows are the lateral leg's, none if that leg failed.
    """
    contact = probe_contact(x, y, scene, error)
    unreachable = (CONTACT_UNREACHABLE, math.nan, math.nan)
    if lateral is None:
        return unreachable, []
    z_stop = scene.table_z if contact[0] == CONTACT_NONE else contact[2]
    # A tool-down tip at z_stop puts the wrist center z_stop + d6 - d1
    # above the shoulder, out of reach past l2 + d4: that descent fails
    # anyway, and toward a huge drifted height it would plan unboundedly
    # many waypoints.  STEP of slack leaves the boundary to the IK.  A
    # NaN height fails the comparison too.
    reach = geom.l2 + geom.d4 + STEP
    if not -reach <= z_stop + geom.d6 - geom.d1 <= reach:
        return unreachable, lateral
    here = (x, y, safe_z)
    descent = line_waypoints(here, (x, y, z_stop))
    # `a + 0.0 * b` need not keep the bits of `a`; the last z never has safe_z's
    head = _BITS(*descent[0]) == _BITS(*here)
    todo = descent[head:]
    try:
        first = append_rows(table, plan_line(todo, geom))
    except UnreachableError:
        return unreachable, lateral
    descend = [here_row] * head + [*range(first, first + len(todo))]
    # Descent row 0 has a row too, though it sits where the lateral leg
    # ends: the retract ends on it, and the lateral's last waypoint need
    # not equal it bit for bit.  The retract backs up the same line,
    # less the contact row.
    return contact, lateral + (descend[1:] if lateral else descend) + descend[-2::-1]
