"""Closed-form kinematics of a 6-DoF arm with a spherical wrist.

The arm is modelled as a yaw base, a two-link planar arm working in the
vertical plane selected by the base yaw, and a ZYZ wrist whose three axes
meet at the wrist center.  Five lengths describe the geometry:

    d1  vertical offset from the base frame to the shoulder
    l1  radial offset from the yaw axis to the shoulder
    l2  upper-arm length (shoulder to elbow)
    d4  forearm length (elbow to wrist center)
    d6  tool offset from the wrist center to the probe tip, along the
        tool approach axis

They are the fields of `RobotGeometry`, defaulting to the reference arm;
the joint limit intervals are the fixed table `JOINT_LIMITS`.

The wrist carrier frame keeps its z axis vertical for every arm posture
(the joint-2/joint-3 rotations are compensated ahead of the wrist, as on
belt-coupled arms), so joint 5 measures the tool tilt from vertical and a
straight-down tool is exactly the wrist-singular configuration.

Joint zero datums ("home" = all joints zero = arm pointing straight up):

    theta2 = 0  when the upper arm is vertical; the geometric elevation of
                the upper arm above the horizontal is theta2 + pi/2
    theta3 = 0  when the arm is fully stretched; the interior elbow angle
                is pi - theta3, positive theta3 folds the forearm down

Both offsets are exposed as module constants.  Only the elbow-up branch is
solved: the elbow always sits above the shoulder-to-wrist chord.

`inverse_kinematics` solves one pose or a whole path of points under one
rotation with one closed form (Pieper's spherical-wrist decoupling) in
scalar `math` code.  A path is that closed form applied point by point,
after one rotation check for the whole path; its error is the first
failing point's, the message prefixed `waypoint i at (x, y, z): `.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Geometric-angle <-> joint-variable datums (see module docstring).
SHOULDER_ELEVATION_OFFSET = math.pi / 2.0
ELBOW_STRAIGHT_INTERIOR = math.pi

# acos arguments within this distance of [-1, 1] are clamped (treated as
# exactly reachable); beyond it the target is out of the workspace.
ACOS_CLAMP_TOL = 1e-12

# Below this |sin(theta5)| the wrist roll axes align and theta4 is
# indeterminate; it is pinned to 0 and the solution flagged.
WRIST_SINGULAR_TOL = 1e-12

# Grace on limit checks: solved angles may sit an epsilon past a limit
# when the target lies exactly on the boundary.
LIMIT_GRACE = 1e-9

# (lo, hi) interval of each joint, radians.
JOINT_LIMITS = tuple(
    (math.radians(lo), math.radians(hi))
    for lo, hi in (
        (-180.0, 180.0),
        (-135.0, 135.0),
        (0.0, 170.0),
        (-180.0, 180.0),
        (0.0, 180.0),
        (-180.0, 180.0),
    )
)

# Probe pointing straight down: approach = -z, tool x kept along base x.
TOOL_DOWN_ROTATION = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, -1.0, 0.0],
        [0.0, 0.0, -1.0],
    ]
)


class UnreachableError(Exception):
    """Target pose lies outside the position workspace."""


class JointLimitError(Exception):
    """A solved joint angle violates its interval in JOINT_LIMITS."""


def normalize_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    r = math.fmod(a + math.pi, 2.0 * math.pi)
    if r <= 0.0:
        r += 2.0 * math.pi
    return r - math.pi


class JointAngles(NamedTuple):
    theta1: float
    theta2: float
    theta3: float
    theta4: float
    theta5: float
    theta6: float


@dataclass(frozen=True)
class RobotGeometry:
    """Link lengths (mm)."""

    d1: float = 170.0
    l1: float = 65.0
    l2: float = 305.0
    d4: float = 222.0
    d6: float = 70.0

    def __post_init__(self):
        for name in ("d1", "l1", "l2", "d4", "d6"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("d1", "l2", "d4", "d6"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.l1 < 0.0:
            raise ValueError(f"l1 must be non-negative, got {self.l1}")


def check_limits(angles: JointAngles) -> None:
    """Raise JointLimitError naming the first joint outside its interval."""
    for j, (a, (lo, hi)) in enumerate(zip(angles, JOINT_LIMITS), start=1):
        if not (lo - LIMIT_GRACE <= a <= hi + LIMIT_GRACE):
            raise JointLimitError(
                f"joint {j} angle {math.degrees(a):.3f} deg outside "
                f"[{math.degrees(lo):.3f}, {math.degrees(hi):.3f}] deg"
            )


@dataclass
class Pose:
    """End-effector frame: 3x3 rotation plus position (mm).

    Column 3 of the rotation is the tool approach axis; the probe tip sits d6 along it
    from the wrist center.  The position is one point, shape (3,), or a
    path of points under the one rotation, shape (N, 3).
    """

    rotation: np.ndarray
    position: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        position = np.asarray(self.position, dtype=float)
        if position.ndim == 2:
            self.position = position.reshape(-1, 3)
        else:
            self.position = position.reshape(3)

    @classmethod
    def tool_down(cls, x: float, y: float, z: float) -> "Pose":
        return cls(TOOL_DOWN_ROTATION.copy(), np.array([x, y, z], dtype=float))

    def rotation_error(self) -> float:
        """Max deviation of R from a proper rotation (orthonormality + det).

        NaN when R holds a NaN: every entry reaches the determinant,
        which goes first because `max` keeps a NaN only in first place.
        """
        (a, b, c), (d, e, f), (g, h, i) = self.rotation.tolist()
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        return max(
            abs(det - 1.0),
            abs(a * a + d * d + g * g - 1.0),
            abs(b * b + e * e + h * h - 1.0),
            abs(c * c + f * f + i * i - 1.0),
            abs(a * b + d * e + g * h),
            abs(a * c + d * f + g * i),
            abs(b * c + e * f + h * i),
        )


@dataclass(frozen=True)
class IkTrace:
    """Intermediate quantities of the position solve, r-z plane view.

    Each field is a float for one pose, an array of one entry per point
    for a path.

    z        wrist-center elevation above the shoulder (mm)
    radial   in-plane distance from the shoulder to the wrist center (mm)
    chord    straight-line shoulder-to-wrist-center distance (mm)
    alpha    elevation of the chord above the horizontal (rad)
    beta     angle at the shoulder between chord and upper arm (rad)
    """

    z: float
    radial: float
    chord: float
    alpha: float
    beta: float
    wrist_singular: bool = False


def _rotz(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _roty(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def forward_kinematics(angles: JointAngles, geom: RobotGeometry) -> Pose:
    """Probe-tip pose for a joint tuple.

    Total on any finite angles; joint limits are the caller's contract.
    """
    t1, t2, t3, t4, t5, t6 = angles
    # Radial direction selected by the base yaw, in the horizontal plane.
    c1, s1 = math.cos(t1), math.sin(t1)
    elev2 = t2 + SHOULDER_ELEVATION_OFFSET          # upper-arm elevation
    elev3 = elev2 - t3                              # forearm elevation
    r_in_plane = (
        geom.l1
        + geom.l2 * math.cos(elev2)
        + geom.d4 * math.cos(elev3)
    )
    zc = geom.d1 + geom.l2 * math.sin(elev2) + geom.d4 * math.sin(elev3)
    center = np.array([r_in_plane * c1, r_in_plane * s1, zc])

    rotation = _rotz(t1 + t4) @ _roty(t5) @ _rotz(t6)
    position = center + geom.d6 * rotation[:, 2]
    return Pose(rotation, position)


# A wrist center closer to the shoulder than this (mm) has no chord
# direction to solve along.
MIN_CHORD = 1e-9


def _solve_branch(
    rot: list, geom: RobotGeometry, theta1: float, radial: float, z: float
) -> tuple:
    """One yaw branch of the closed form; `rot` is the rotation as nested floats.

    Returns the six joint angles and the IkTrace fields, both as tuples.
    """
    chord = math.hypot(radial, z)
    if chord < MIN_CHORD:
        raise UnreachableError("wrist center coincides with the shoulder")
    alpha = math.atan2(z, radial)

    l2, d4 = geom.l2, geom.d4
    cosine = (l2 * l2 + d4 * d4 - chord * chord) / (2.0 * l2 * d4)
    if cosine > 1.0 + ACOS_CLAMP_TOL or cosine < -1.0 - ACOS_CLAMP_TOL:
        raise UnreachableError(
            f"elbow triangle (chord {chord:.3f} mm, annulus "
            f"[{abs(l2 - d4):.3f}, {l2 + d4:.3f}]): "
            f"cosine argument {cosine:.6f} outside [-1, 1]"
        )
    interior = math.acos(min(1.0, max(-1.0, cosine)))
    theta3 = ELBOW_STRAIGHT_INTERIOR - interior
    # Shoulder angle from the solved elbow angle rather than a second
    # acos: the pair then closes the triangle exactly, which keeps the
    # round trip tight even at the stretched (interior = pi) boundary
    # where independent acos calls are ill-conditioned.
    beta = math.atan2(
        d4 * math.sin(theta3), l2 + d4 * math.cos(theta3)
    )

    theta2 = normalize_angle(alpha + beta - SHOULDER_ELEVATION_OFFSET)

    # Wrist: ZYZ angles of the rotation seen from the (vertical-z) carrier.
    (r11, _, r13), (r21, _, r23), (m31, m32, m33) = rot
    c1, s1 = math.cos(theta1), math.sin(theta1)
    m13 = c1 * r13 + s1 * r23
    m23 = -s1 * r13 + c1 * r23
    m11 = c1 * r11 + s1 * r21
    m21 = -s1 * r11 + c1 * r21

    # atan2 keeps the tilt relative-accurate where acos(m33) would
    # round tiny tilts to zero and drop a d6-scaled tip offset
    sin5 = math.hypot(m13, m23)
    theta5 = math.atan2(sin5, m33)
    wrist_singular = sin5 <= WRIST_SINGULAR_TOL
    if wrist_singular:
        theta4 = 0.0
        if m33 > 0.0:
            theta5 = 0.0
            theta6 = math.atan2(m21, m11)
        else:
            theta5 = math.pi
            theta6 = math.atan2(m21, -m11)
    else:
        theta4 = math.atan2(m23, m13)
        theta6 = math.atan2(m32, -m31)

    angles = (
        theta1,
        theta2,
        theta3,
        normalize_angle(theta4),
        theta5,
        normalize_angle(theta6),
    )
    check_limits(angles)
    return angles, (z, radial, chord, alpha, beta, wrist_singular)


def _solve_point(
    rot: list, geom: RobotGeometry, x: float, y: float, z: float
) -> tuple:
    """Both yaw branches for the tip at (x, y, z); the aimed one wins."""
    # wrist center: the tip backed off d6 along the approach (column 3)
    xc = x - geom.d6 * rot[0][2]
    yc = y - geom.d6 * rot[1][2]
    height = z - geom.d6 * rot[2][2] - geom.d1  # above the shoulder
    azimuth = math.atan2(yc, xc)
    planar = math.hypot(xc, yc)

    try:
        return _solve_branch(rot, geom, azimuth, planar - geom.l1, height)
    except (UnreachableError, JointLimitError) as aimed_error:
        try:
            return _solve_branch(
                rot, geom, normalize_angle(azimuth + math.pi), -planar - geom.l1, height
            )
        except (UnreachableError, JointLimitError):
            raise aimed_error from None


def inverse_kinematics(pose: Pose, geom: RobotGeometry) -> tuple:
    """Solve the elbow-up joint tuple reproducing `pose`.

    Returns (JointAngles, IkTrace) for a one-point pose.  A path, an
    (N, 3) position, is the same closed form solved point by point
    after one rotation check; it returns an (N, 6) angle array and an
    IkTrace of arrays, and a failure raises the first unsolvable
    point's error, its message prefixed ``waypoint i at (x, y, z): ``.

    All quadrant-sensitive inverse tangents are two-argument.  A
    straight-down (or straight-up) tool makes joint 4 indeterminate; it
    is pinned to 0 and the trace flags ``wrist_singular``.

    The base yaw aims at the wrist center.  Postures that carry the
    wrist center across the base axis (upper arm pitched past vertical)
    have no solution with that yaw; they are recovered by the
    back-reaching branch, yaw turned half a turn with the wrist center
    behind the shoulder (negative radial).  Both branches are elbow-up;
    the aimed branch wins when it exists.

    Raises UnreachableError when the wrist center falls outside the
    two-link annulus in both branches, JointLimitError when a solved
    angle violates its interval, ValueError on a non-orthonormal
    rotation.
    """
    error = pose.rotation_error()
    if not error <= 1e-9:  # a NaN error fails too
        raise ValueError(f"pose rotation is not orthonormal (error {error:.2e})")
    rot = pose.rotation.tolist()
    if pose.position.ndim == 1:
        angles, trace = _solve_point(rot, geom, *pose.position.tolist())
        return JointAngles(*angles), IkTrace(*trace)

    rows, traces = [], []
    for i, (x, y, z) in enumerate(pose.position.tolist()):
        try:
            angles, trace = _solve_point(rot, geom, x, y, z)
        except (UnreachableError, JointLimitError) as exc:
            where = f"waypoint {i} at ({x:.3f}, {y:.3f}, {z:.3f})"
            raise type(exc)(f"{where}: {exc}") from None
        rows.append(angles)
        traces.append(trace)
    *fields, singular = np.array(traces, dtype=float).reshape(-1, 6).T
    trace = IkTrace(*fields, singular.astype(bool))
    return np.array(rows, dtype=float).reshape(-1, 6), trace


def is_reachable(point, geom: RobotGeometry) -> tuple:
    """Whether a straight-down probe pose at `point` (mm) is solvable.

    Returns (ok, diagnostic); the diagnostic names the failing check.
    """
    x, y, z = (float(v) for v in point)
    try:
        inverse_kinematics(Pose.tool_down(x, y, z), geom)
    except (UnreachableError, JointLimitError) as exc:
        return False, str(exc)
    return True, "reachable"
