"""Straight-line Cartesian planning and the touch-probe motion cycle.

Planning is quasi-static: a leg is a uniform chain of position
waypoints at most `STEP` apart (`line_waypoints`) under the tool-down
orientation.  `plan_line` solves a leg in one IK call over all its
waypoints (an (N, 3) position): the rotation is checked once, then the
one closed form solves waypoint by waypoint, and the leg comes back as
an (N, 6) angle array, a row per waypoint.  No velocity profile exists;
the rows are the sequence an open-loop controller would stream.

A probe cycle is two such lines, lateral travel at the safe height and
descent to the contact, then the retract: the descent's rows replayed
in reverse back to the safe height, with no further IK.  Contact
heights come from the scene's exact raycast; the descent step size only
shapes the joint log, never the measurement.

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


def plan_line(start, end, geom: RobotGeometry) -> np.ndarray:
    """Solve tool-down IK for every waypoint of the segment in one call.

    Returns the (N, 6) joint angles, a row per waypoint.  Raises
    UnreachableError (JointLimitError past a joint stop) naming the
    first offending waypoint's index and position.
    """
    return inverse_kinematics(Pose(TOOL_DOWN_ROTATION, line_waypoints(start, end)), geom)


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
    between legs appear once.  The retract replays the descent's rows in
    reverse, so only the lateral leg or the descent can fail; then the
    contact is (CONTACT_UNREACHABLE, nan, nan), a kind distinct from a
    no-contact miss, and the angles hold only the lateral travel, still
    ending at the safe height.
    """
    lateral = np.zeros((0, 6))
    try:
        if from_xy is not None:
            lateral = plan_line((*from_xy, safe_z), (x, y, safe_z), geom)

        contact = probe_contact(x, y, contact_index, scene, noise)
        z_measured = contact[2]
        z_stop = scene.table_z if math.isnan(z_measured) else z_measured
        # A tool-down tip at z_stop puts the wrist center z_stop + d6 - d1
        # above the shoulder, out of reach past l2 + d4: that descent fails
        # anyway, and toward a huge drifted height it would plan unboundedly
        # many waypoints.  STEP of slack leaves the boundary to the IK.
        reach = geom.l2 + geom.d4 + STEP
        if not -reach <= z_stop + geom.d6 - geom.d1 <= reach:
            raise UnreachableError(f"contact height {z_stop:g} mm is out of reach")
        descend = plan_line((x, y, safe_z), (x, y, z_stop), geom)
    except UnreachableError:
        # the angles hold at most the lateral leg, still at the safe height
        return (CONTACT_UNREACHABLE, math.nan, math.nan), lateral

    retract = descend[-2::-1]  # back up the same line, less the contact row
    if from_xy is not None:
        descend = descend[1:]
    return contact, np.concatenate([lateral, descend, retract])
