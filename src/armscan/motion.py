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
fails is the lateral leg solved again alone.  The legs are joined as
lists of row tuples, and each cycle builds one (N, 6) array.  Contact
heights come from the scene's exact raycast; the descent step size
only shapes the joint log, never the measurement.

Within a cycle the legs share their seam row once.  Cycles are
concatenated whole: each lateral leg starts with the row the previous
cycle ended on, so that row appears twice.  A scan's rows become one
`JointTrace`, whose CSV waypoint column is simply the row number; the
CSV formats each distinct row once.
"""

from __future__ import annotations

import math
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

    The CSV numbers the waypoints by row, from 0, in degrees.
    """

    angles: np.ndarray = field(default_factory=lambda: np.zeros((0, 6)))

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=float).reshape(-1, 6)

    def __len__(self) -> int:
        return len(self.angles)

    def to_csv(self) -> str:
        # Rows repeat (a retract replays its descent): format each
        # distinct row once.  Rows are told apart by their bits, so
        # -0.0 and 0.0 print apart as they must.
        rows = np.ascontiguousarray(self.angles).view(np.void(48)).ravel()
        distinct, index = np.unique(rows, return_inverse=True)
        texts = [
            ",%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n" % tuple(row)
            for row in np.degrees(distinct.view(float).reshape(-1, 6)).tolist()
        ]
        return CSV_HEADER + "".join(
            [f"{i}{texts[j]}" for i, j in enumerate(index.ravel().tolist())]
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


def probe_cycle(
    x: float,
    y: float,
    *,
    safe_z: float,
    geom: RobotGeometry,
    scene: TargetScene,
    error: float,
    from_xy=None,
) -> tuple:
    """One touch: travel over (x, y), descend to contact, retract.

    `error` is the contact's measurement error, drawn by the caller
    (`NoiseModel.errors` at the contact's ordinal).  Returns
    ((kind, z_true, z_measured), angles), the contact as `probe_contact`
    gives it and the cycle's (N, 6) joint angles.  The angles start and
    end at the safe height; seam waypoints shared between legs appear
    once.  The contact is taken first; the descent stops at the table
    on a miss (kind "none") and at the measured height otherwise.  Both
    legs are then solved end to end in one `plan_line` call; the
    retract replays the descent's rows in reverse, so only the lateral
    leg or the descent can fail.  A measured height that is not finite,
    or lies more than STEP past the tool-down tip band, fails with no
    descent planned.  A failed cycle's contact is (CONTACT_UNREACHABLE,
    nan, nan), a kind distinct from a no-contact miss, and its angles
    hold only the lateral travel, re-planned alone and still ending at
    the safe height, or nothing if that leg fails.
    """
    contact = probe_contact(x, y, scene, error)
    z_stop = scene.table_z if contact[0] == CONTACT_NONE else contact[2]
    lateral = [] if from_xy is None else line_waypoints((*from_xy, safe_z), (x, y, safe_z))
    # A tool-down tip at z_stop puts the wrist center z_stop + d6 - d1
    # above the shoulder, out of reach past l2 + d4: that descent fails
    # anyway, and toward a huge drifted height it would plan unboundedly
    # many waypoints.  STEP of slack leaves the boundary to the IK.  A
    # NaN height fails the comparison too.
    reach = geom.l2 + geom.d4 + STEP
    if -reach <= z_stop + geom.d6 - geom.d1 <= reach:
        descent = line_waypoints((x, y, safe_z), (x, y, z_stop))
        try:
            rows = plan_line(lateral + descent, geom)
        except UnreachableError:
            pass
        else:
            # Descent row 0 is solved too, though it sits where the
            # lateral leg ends: the retract ends on it, and the lateral's
            # last row need not equal it bit for bit.
            n = len(lateral)
            descend = rows[n:]
            retract = descend[-2::-1]  # back up the same line, less the contact row
            return contact, np.array(rows[:n] + (descend[1:] if n else descend) + retract)

    try:
        lateral_rows = plan_line(lateral, geom)
    except UnreachableError:
        lateral_rows = []
    return (CONTACT_UNREACHABLE, math.nan, math.nan), np.array(lateral_rows).reshape(-1, 6)
