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

The inverse is one closed form (Pieper's spherical-wrist decoupling) in
scalar `math` code, one path kernel, `_path_kernel`.  It reads the link
lengths, the tip-to-wrist offset, the rotation entries and the widened
joint limits once per call.  The base yaw, the wrist angles and their
limit checks depend on the point's (x, y) alone, so a run of points
with equal (x, y), such as a vertical descent, works them out once;
each point then solves only its height and the elbow.  A run goes on
while x and y `==` the previous point's, a zero also by its sign,
since 0.0 and -0.0 aim the yaw apart; a NaN, which equals nothing,
starts a new run.  Each point takes one pass per yaw branch: the aimed
branch, then, only where that fails, the back-reaching branch.  A
point neither branch solves raises, or, with failure records asked
for, takes a placeholder row and a record that `failure_error` turns
into its error.

`inverse_kinematics` solves one `Pose`, one point, after a rotation
check, and returns its `JointAngles`.  A path is `solve_path`: the
points as (x, y, z) float triples and the rotation as nested floats,
unchecked, giving a tuple of six angles per point; its error is the
first failing point's, the message prefixed `waypoint i at (x, y, z): `.
Straight-line legs (`motion.plan_line`) call it under the tool-down
rotation, with no `Pose` and no array.

A pose the arm cannot take raises `UnreachableError`; a solved angle
past its stop is one kind of it, the subclass `JointLimitError`, so one
`except UnreachableError` covers both.  A NaN target coordinate is a
`ValueError`, even beside an infinite one; an infinite coordinate alone
is out of reach.  A rejected length, like every rejected value from
outside the program across the package, raises `ConfigError`.
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
# indeterminate; it is pinned to 0, with theta5 exactly 0 or pi.
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


class ConfigError(ValueError):
    """A value from outside the program (job file, flag or input file) is invalid."""


class UnreachableError(Exception):
    """The arm cannot take the target pose, for any kinematic reason."""


class JointLimitError(UnreachableError):
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
    """Link lengths (mm): finite, positive but l1 >= 0, and with a sum
    whose square is finite."""

    d1: float = 170.0
    l1: float = 65.0
    l2: float = 305.0
    d4: float = 222.0
    d6: float = 70.0

    def __post_init__(self):
        for name in ("d1", "l1", "l2", "d4", "d6"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("d1", "l2", "d4", "d6"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.l1 < 0.0:
            raise ConfigError(f"l1 must be non-negative, got {self.l1}")
        # bounds every product the closed forms take of the lengths
        total = self.d1 + self.l1 + self.l2 + self.d4 + self.d6
        if not math.isfinite(total * total):
            raise ConfigError(f"link lengths sum to {total:g} mm, too long to square")


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
    """End-effector frame: 3x3 rotation plus position (mm), one point.

    Column 3 of the rotation is the tool approach axis; the probe tip sits d6 along it
    from the wrist center.  A path of points under one rotation is not a
    Pose but `solve_path`'s input.
    """

    rotation: np.ndarray
    position: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        self.position = np.asarray(self.position, dtype=float).reshape(3)

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

# The placeholder row of a point whose failure `_path_kernel` records.
FAILED_ROW = (math.nan,) * 6


def failure_error(failure: tuple, geom: RobotGeometry) -> UnreachableError:
    """The error of a failure record of `_path_kernel`: the aimed
    branch's (chord, cosine, angles), angles None when the elbow
    triangle does not close.  Its message is built only here."""
    chord, cosine, angles = failure
    if chord < MIN_CHORD:
        return UnreachableError("wrist center coincides with the shoulder")
    if angles is None:
        return UnreachableError(
            f"elbow triangle (chord {chord:.3f} mm, annulus [{abs(geom.l2 - geom.d4):.3f}, "
            f"{geom.l2 + geom.d4:.3f}]): cosine argument {cosine:.6f} outside [-1, 1]"
        )
    try:  # names the first joint outside its interval
        check_limits(angles)
    except JointLimitError as exc:
        return exc


def _path_kernel(points, rot: list, geom: RobotGeometry, rows: list, failures=None) -> None:
    """The closed form: solve the tip at each (x, y, z) of `points` under
    `rot` (nested floats, unchecked), appending the six joint angles of
    each point to `rows` as a tuple.

    The link lengths, the tip-to-wrist offset along the approach (column
    3) and the joint limits widened by LIMIT_GRACE are read once, the
    limits from JOINT_LIMITS as they stand now.  A run of points goes on
    while x and y equal the previous point's by float `==` and, where
    zero, by sign (`copysign`): 0.0 == -0.0, yet they aim the yaw apart.
    A NaN equals nothing and starts a new run.  Equal floats of equal
    sign have equal bits, so a run shares the wrist center's azimuth
    and planar distance, and each yaw branch's wrist half: the yaw,
    joints 4-6 and whether those four pass their limits.  Per point
    only the height and the elbow half are solved, one pass per branch:
    the aimed branch, whose row is appended if it is within every limit
    and whose values are otherwise the point's failure record, then the
    back-reaching branch, its wrist half worked out once per run when
    first needed.  A point neither branch solves raises ValueError for
    a NaN coordinate.  Otherwise, given a `failures` list, it appends
    FAILED_ROW to `rows` and (its index, the failure record) to
    `failures`, and the solve goes on; given none, it raises the aimed
    branch's error, with no prefix, at index `len(rows)`.
    """
    d1, l1, l2, d4 = geom.d1, geom.l1, geom.l2, geom.d4
    sides, twice = l2 * l2 + d4 * d4, 2.0 * l2 * d4
    (r11, _, r13), (r21, _, r23), (m31, m32, m33) = rot
    off_x, off_y, off_z = geom.d6 * r13, geom.d6 * r23, geom.d6 * m33
    g = LIMIT_GRACE
    (lo1, hi1), (lo2, hi2), (lo3, hi3), (lo4, hi4), (lo5, hi5), (lo6, hi6) = [
        (lo - g, hi + g) for lo, hi in JOINT_LIMITS
    ]
    low, high = -1.0 - ACOS_CLAMP_TOL, 1.0 + ACOS_CLAMP_TOL
    # bound to locals: the loop below runs once per point
    atan2, hypot, acos, sin, cos, fmod = (
        math.atan2, math.hypot, math.acos, math.sin, math.cos, math.fmod
    )
    pi, tau, copysign = math.pi, 2.0 * math.pi, math.copysign

    def wrist(theta1: float, radial: float) -> tuple:
        """One yaw branch's half shared by a run: (theta1, radial,
        theta4, theta5, theta6, whether theta1 and theta4-6 pass their
        limits), `radial` being the wrist center's in-plane distance
        from the shoulder along theta1's direction (mm)."""
        # ZYZ angles of the rotation seen from the (vertical-z) carrier.
        c1, s1 = cos(theta1), sin(theta1)
        m13 = c1 * r13 + s1 * r23
        m23 = -s1 * r13 + c1 * r23
        m11 = c1 * r11 + s1 * r21
        m21 = -s1 * r11 + c1 * r21

        sin5 = hypot(m13, m23)
        if sin5 <= WRIST_SINGULAR_TOL:
            theta4 = 0.0
            if m33 > 0.0:
                theta5 = 0.0
                theta6 = atan2(m21, m11)
            else:
                theta5 = pi
                theta6 = atan2(m21, -m11)
        else:
            # atan2 keeps the tilt relative-accurate where acos(m33)
            # would round tiny tilts to zero and drop a d6-scaled tip
            # offset
            theta5 = atan2(sin5, m33)
            theta4 = normalize_angle(atan2(m23, m13))
            theta6 = atan2(m32, -m31)
        # normalize_angle(theta6), written out
        theta6 = fmod(theta6 + pi, tau)
        if theta6 <= 0.0:
            theta6 += tau
        theta6 -= pi
        # one chained comparison per joint; a NaN fails it
        ok = (
            lo1 <= theta1 <= hi1
            and lo4 <= theta4 <= hi4
            and lo5 <= theta5 <= hi5
            and lo6 <= theta6 <= hi6
        )
        return theta1, radial, theta4, theta5, theta6, ok

    append = rows.append
    px = py = None
    for x, y, z in points:
        if x != px or y != py or not x and copysign(1.0, x) != copysign(1.0, px) or (
            not y and copysign(1.0, y) != copysign(1.0, py)
        ):
            px, py = x, y
            # wrist center: the tip backed off d6 along the approach
            xc = x - off_x
            yc = y - off_y
            azimuth = atan2(yc, xc)
            planar = hypot(xc, yc)
            a1, a_radial, a4, a5, a6, aimed_ok = wrist(azimuth, planar - l1)
            back = None
        height = z - off_z - d1  # above the shoulder

        # The aimed branch; a point it does not solve within every limit
        # keeps its values as the failure record.
        chord = hypot(a_radial, height)
        cosine = (sides - chord * chord) / twice
        angles = None
        if chord >= MIN_CHORD and low <= cosine <= high:
            # acos(min(1.0, max(-1.0, cosine))), written out
            interior = acos(1.0 if cosine > 1.0 else -1.0 if cosine < -1.0 else cosine)
            theta3 = ELBOW_STRAIGHT_INTERIOR - interior
            # Shoulder angle from the solved elbow angle rather than a
            # second acos: the pair then closes the triangle exactly,
            # which keeps the round trip tight even at the stretched
            # (interior = pi) boundary where independent acos calls are
            # ill-conditioned.
            beta = atan2(d4 * sin(theta3), l2 + d4 * cos(theta3))
            # normalize_angle(chord elevation + beta - elevation offset)
            theta2 = fmod(atan2(height, a_radial) + beta - SHOULDER_ELEVATION_OFFSET + pi, tau)
            if theta2 <= 0.0:
                theta2 += tau
            theta2 -= pi
            angles = (a1, theta2, theta3, a4, a5, a6)
            if aimed_ok and lo2 <= theta2 <= hi2 and lo3 <= theta3 <= hi3:
                append(angles)
                continue
        failure = (chord, cosine, angles)

        # The back-reaching branch: the same elbow arithmetic, its wrist
        # half worked out at most once per run
        if back is None:
            back = wrist(normalize_angle(azimuth + pi), -planar - l1)
        b1, b_radial, b4, b5, b6, back_ok = back
        chord = hypot(b_radial, height)
        cosine = (sides - chord * chord) / twice
        if back_ok and chord >= MIN_CHORD and low <= cosine <= high:
            interior = acos(1.0 if cosine > 1.0 else -1.0 if cosine < -1.0 else cosine)
            theta3 = ELBOW_STRAIGHT_INTERIOR - interior
            beta = atan2(d4 * sin(theta3), l2 + d4 * cos(theta3))
            theta2 = fmod(atan2(height, b_radial) + beta - SHOULDER_ELEVATION_OFFSET + pi, tau)
            if theta2 <= 0.0:
                theta2 += tau
            theta2 -= pi
            if lo2 <= theta2 <= hi2 and lo3 <= theta3 <= hi3:
                append((b1, theta2, theta3, b4, b5, b6))
                continue
        # a NaN fails the reach test, beside an infinite coordinate too
        if math.isnan(x) or math.isnan(y) or math.isnan(z):
            raise ValueError("target position is not finite")
        if failures is None:
            raise failure_error(failure, geom)
        failures.append((len(rows), failure))
        append(FAILED_ROW)


def inverse_kinematics(pose: Pose, geom: RobotGeometry) -> JointAngles:
    """Solve the elbow-up joint tuple reproducing `pose`, one point.

    A path of points under one rotation is `solve_path`.

    All quadrant-sensitive inverse tangents are two-argument.  A
    straight-down (or straight-up) tool makes joint 4 indeterminate; it
    is pinned to 0, with joint 5 exactly 0 or pi.

    The base yaw aims at the wrist center.  Postures that carry the
    wrist center across the base axis (upper arm pitched past vertical)
    have no solution with that yaw; they are recovered by the
    back-reaching branch, yaw turned half a turn with the wrist center
    behind the shoulder (negative radial).  Both branches are elbow-up;
    the aimed branch wins when it exists.

    Raises UnreachableError when neither branch can take the pose: the
    wrist center falls outside the two-link annulus, or a solved angle
    violates its interval, which raises the subclass JointLimitError.
    Raises ValueError on a non-orthonormal rotation or a NaN target
    coordinate, even beside an infinite one.
    """
    error = pose.rotation_error()
    if not error <= 1e-9:  # a NaN error fails too
        raise ValueError(f"pose rotation is not orthonormal (error {error:.2e})")
    rows = []
    _path_kernel((pose.position.tolist(),), pose.rotation.tolist(), geom, rows)
    return JointAngles(*rows[0])


def solve_path(points, rot: list, geom: RobotGeometry) -> list:
    """The closed form (`_path_kernel`) under `rot` (nested floats,
    unchecked) over a path.

    `points` is a sequence of (x, y, z) float triples.  Returns a list
    with a tuple of six joint angles per point.  The first point neither
    branch solves raises its error, the message prefixed
    ``waypoint i at (x, y, z): ``; a NaN coordinate's ValueError
    propagates as it is.
    """
    rows = []
    try:
        _path_kernel(points, rot, geom, rows)
    except UnreachableError as exc:
        x, y, z = points[len(rows)]
        where = f"waypoint {len(rows)} at ({x:.3f}, {y:.3f}, {z:.3f})"
        raise type(exc)(f"{where}: {exc}") from None
    return rows


def is_reachable(point, geom: RobotGeometry) -> tuple:
    """Whether a straight-down probe pose at `point` (mm) is solvable.

    Returns (ok, diagnostic); the diagnostic names the failing check.
    The ValueError of a NaN coordinate, even beside an infinite one,
    propagates.
    """
    x, y, z = (float(v) for v in point)
    try:
        inverse_kinematics(Pose.tool_down(x, y, z), geom)
    except UnreachableError as exc:
        return False, str(exc)
    return True, "reachable"
