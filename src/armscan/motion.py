"""Straight-line Cartesian planning and the touch-probe motion cycle.

Planning is quasi-static: a path is a uniform chain of position
waypoints under a constant tool orientation.  Each leg is one IK call
over all its waypoints (an (N, 3) position): the rotation is checked
once, then the one closed form solves waypoint by waypoint.  No
velocity profile exists; the trace is the sequence an open-loop
controller would stream.

A probe cycle is two such lines, lateral travel at the safe height and
descent to the contact, then the retract: the descent's rows replayed
in reverse back to the safe height, with no further IK.  Contact
heights come from the scene's exact raycast; the descent step size only
shapes the joint log, never the measurement.

A joint trace is one (N, 6) array of angles, a row per waypoint.  Legs
and cycles join by slicing off shared seam rows and concatenating, so
the CSV's waypoint column is simply the row number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kinematics import (
    TOOL_DOWN_ROTATION,
    JointLimitError,
    Pose,
    RobotGeometry,
    UnreachableError,
    inverse_kinematics,
)
from .scene import CONTACT_UNREACHABLE, NoiseModel, TargetScene, probe_contact

DEFAULT_STEP = 5.0

CSV_HEADER = (
    "waypoint,theta1_deg,theta2_deg,theta3_deg,theta4_deg,theta5_deg,theta6_deg\n"
)


@dataclass
class LinearPath:
    """Uniformly sampled segment; `plan_line` solves it tool-down."""

    start: np.ndarray
    end: np.ndarray
    step: float = DEFAULT_STEP

    def __post_init__(self):
        self.start = np.asarray(self.start, dtype=float).reshape(3)
        self.end = np.asarray(self.end, dtype=float).reshape(3)
        if not self.step > 0.0:  # a NaN step fails too
            raise ValueError(f"step must be positive, got {self.step}")

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.end - self.start))

    def waypoints(self) -> np.ndarray:
        """Uniform interpolation, endpoints exact, spacing <= step.

        A degenerate segment yields the single start point.  The 1e-9
        slack keeps an exact multiple of step from picking up a phantom
        extra interval through float rounding.
        """
        length = self.length
        if length < 1e-12:
            return self.start[None, :].copy()
        intervals = max(1, math.ceil(length / self.step - 1e-9))
        t = np.arange(intervals + 1) / intervals
        return self.start + t[:, None] * (self.end - self.start)


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
        table = np.column_stack([np.arange(len(self)), np.degrees(self.angles)])
        row = "%d" + ",%.6f" * 6 + "\n"
        return CSV_HEADER + (row * len(self)) % tuple(table.ravel().tolist())


def plan_line(path: LinearPath, geom: RobotGeometry) -> JointTrace:
    """Solve tool-down IK for all waypoints of the path in one call.

    Raises UnreachableError or JointLimitError naming the first
    offending waypoint's index and position.
    """
    points = path.waypoints()
    try:
        angles, _ = inverse_kinematics(Pose(TOOL_DOWN_ROTATION, points), geom)
    except (UnreachableError, JointLimitError) as exc:
        x, y, z = points[exc.row]
        where = f"waypoint {exc.row} at ({x:.3f}, {y:.3f}, {z:.3f})"
        if isinstance(exc, UnreachableError):
            raise UnreachableError(f"{where}: {exc}") from None
        raise JointLimitError(exc.joint, exc.value, *exc.limits, context=where) from None
    return JointTrace(angles)


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

    Returns ((kind, z_true, z_measured), JointTrace), the contact as
    `probe_contact` gives it.  The trace starts and ends at the safe
    height; seam waypoints shared between legs appear once.  The
    retract replays the descent's rows in reverse, so only the lateral
    leg or the descent can fail; then the contact is
    (CONTACT_UNREACHABLE, nan, nan), a kind distinct from a no-contact
    miss, and the trace holds only the lateral travel, still ending at
    the safe height.
    """
    lateral = np.zeros((0, 6))
    try:
        if from_xy is not None:
            lateral = plan_line(
                LinearPath([from_xy[0], from_xy[1], safe_z], [x, y, safe_z]), geom
            ).angles

        contact = probe_contact(x, y, contact_index, scene, noise)
        z_measured = contact[2]
        z_stop = scene.table_z if math.isnan(z_measured) else z_measured
        descend = plan_line(LinearPath([x, y, safe_z], [x, y, z_stop]), geom).angles
    except (UnreachableError, JointLimitError):
        # the trace holds at most the lateral leg, still at the safe height
        return (CONTACT_UNREACHABLE, math.nan, math.nan), JointTrace(lateral)

    retract = descend[-2::-1]  # back up the same line, less the contact row
    if from_xy is not None:
        descend = descend[1:]
    return contact, JointTrace(np.concatenate([lateral, descend, retract]))
