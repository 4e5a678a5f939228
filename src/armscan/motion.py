"""Straight-line Cartesian planning and the touch-probe motion cycle.

Planning is quasi-static: a leg is a uniform chain of position
waypoints at most `STEP` apart (`line_waypoints`) under the tool-down
orientation.  `plan_line` solves a path of waypoints (an (N, 3)
position) in one IK call: the rotation is checked and the closed form
set up once, then it solves waypoint by waypoint, and the path comes
back as an (N, 6) angle array, a row per waypoint.  No velocity profile
exists; the rows are the sequence an open-loop controller would stream.

A probe cycle is two such lines, lateral travel at the safe height and
descent to the contact, then the retract: the descent's rows replayed
in reverse back to the safe height, with no further IK.  The cycle
takes its contact first and solves both legs end to end in one
`plan_line` call; only when that fails is the lateral leg solved again
alone.  Contact heights come from the scene's exact raycast; the
descent step size only shapes the joint log, never the measurement.

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

from .kinematics import (
    TOOL_DOWN_ROTATION,
    Pose,
    RobotGeometry,
    UnreachableError,
    inverse_kinematics,
)
from .scene import CONTACT_UNREACHABLE, NoiseModel, TargetScene, probe_contact

# Longest gap (mm) between consecutive waypoints of a leg.
STEP = 5.0

CSV_HEADER = (
    "waypoint,theta1_deg,theta2_deg,theta3_deg,theta4_deg,theta5_deg,theta6_deg\n"
)


def line_waypoints(start, end) -> np.ndarray:
    """(N, 3) uniform interpolation of a segment, endpoints exact,
    spacing <= STEP.

    A degenerate segment yields the single start point.  The 1e-9
    slack keeps an exact multiple of STEP from picking up a phantom
    extra interval through float rounding.
    """
    start = np.asarray(start, dtype=float)
    d = np.asarray(end, dtype=float) - start
    length = math.sqrt(d.dot(d))  # np.linalg.norm's arithmetic on a vector
    if length < 1e-12:
        return start[None, :].copy()
    intervals = max(1, math.ceil(length / STEP - 1e-9))
    t = np.arange(intervals + 1) / intervals
    return start + t[:, None] * d


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


def plan_line(waypoints, geom: RobotGeometry) -> np.ndarray:
    """Solve tool-down IK for every waypoint of a path in one call.

    `waypoints` is an (N, 3) array of positions (mm), such as
    `line_waypoints` gives.  Returns the (N, 6) joint angles, a row per
    waypoint.  Raises UnreachableError (JointLimitError past a joint
    stop) naming the first offending waypoint's index and position.
    """
    return inverse_kinematics(Pose(TOOL_DOWN_ROTATION, waypoints), geom)


def probe_cycle(
    x: float,
    y: float,
    *,
    safe_z: float,
    geom: RobotGeometry,
    scene: TargetScene,
    noise: NoiseModel,
    contact_index: int,
    from_xy=None,
) -> tuple:
    """One touch: travel over (x, y), descend to contact, retract.

    Returns ((kind, z_true, z_measured), angles), the contact as
    `probe_contact` gives it and the cycle's (N, 6) joint angles.  The
    angles start and end at the safe height; seam waypoints shared
    between legs appear once.  The contact is taken first, then both
    legs are solved end to end in one `plan_line` call; the retract
    replays the descent's rows in reverse, so only the lateral leg or
    the descent can fail.  Then the contact is (CONTACT_UNREACHABLE,
    nan, nan), a kind distinct from a no-contact miss, and the angles
    hold only the lateral travel, re-planned alone and still ending at
    the safe height, or nothing if that leg fails.
    """
    contact = probe_contact(x, y, contact_index, scene, noise)
    z_measured = contact[2]
    z_stop = scene.table_z if math.isnan(z_measured) else z_measured
    lateral = np.zeros((0, 3))
    if from_xy is not None:
        lateral = line_waypoints((*from_xy, safe_z), (x, y, safe_z))
    # A tool-down tip at z_stop puts the wrist center z_stop + d6 - d1
    # above the shoulder, out of reach past l2 + d4: that descent fails
    # anyway, and toward a huge drifted height it would plan unboundedly
    # many waypoints.  STEP of slack leaves the boundary to the IK.
    reach = geom.l2 + geom.d4 + STEP
    if -reach <= z_stop + geom.d6 - geom.d1 <= reach:
        descent = line_waypoints((x, y, safe_z), (x, y, z_stop))
        try:
            rows = plan_line(np.concatenate([lateral, descent]), geom)
        except UnreachableError:
            pass
        else:
            # Descent row 0 is solved too, though it sits where the
            # lateral leg ends: the retract ends on it, and the lateral's
            # last row need not equal it bit for bit.
            n = len(lateral)
            descend = rows[n:]
            retract = descend[-2::-1]  # back up the same line, less the contact row
            return contact, np.concatenate([rows[:n], descend[1:] if n else descend, retract])

    try:
        lateral_rows = plan_line(lateral, geom)
    except UnreachableError:
        lateral_rows = np.zeros((0, 6))
    return (CONTACT_UNREACHABLE, math.nan, math.nan), lateral_rows
