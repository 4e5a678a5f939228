import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from armscan import kinematics
from armscan.kinematics import (
    JOINT_LIMITS,
    LIMIT_GRACE,
    SHOULDER_ELEVATION_OFFSET,
    TOOL_DOWN_ROTATION,
    JointAngles,
    JointLimitError,
    Pose,
    RobotGeometry,
    UnreachableError,
    check_limits,
    forward_kinematics,
    inverse_kinematics,
    is_reachable,
    normalize_angle,
    solve_path,
)

from conftest import random_joint_tuples
from oracles import (
    fk_reference,
    ik_point_reference,
    radial_reference,
    wrist_center_reference,
)

DEG = math.pi / 180.0


def ik_roundtrip_errors(q, geom):
    pose = forward_kinematics(q, geom)
    sol = inverse_kinematics(pose, geom)
    back = forward_kinematics(sol, geom)
    pos_err = np.abs(back.position - pose.position).max()
    rot_err = np.abs(back.rotation - pose.rotation).max()
    return pos_err, rot_err, sol


def oracle_chord(sol, geom):
    """(chord, alpha) of a solution from the reference chain: the
    shoulder-to-wrist-center distance (mm) in the yaw plane and its
    elevation above the horizontal (rad)."""
    radial = radial_reference(sol, geom)
    z = wrist_center_reference(sol, geom)[2] - geom.d1
    return math.hypot(radial, z), math.atan2(z, radial)


def assert_elbow_up(sol, geom):
    """The upper arm's elevation is alpha + beta (modulo 2 pi), beta the
    triangle's shoulder angle in [0, pi]: the elbow sits on or above the
    chord, and an upper arm of l2 at beta from a chord of that length
    leaves d4 to the wrist center."""
    chord, alpha = oracle_chord(sol, geom)
    assert abs(geom.l2 - geom.d4) - 1e-9 <= chord <= geom.l2 + geom.d4 + 1e-9
    beta = normalize_angle(sol.theta2 + SHOULDER_ELEVATION_OFFSET - alpha)
    assert -1e-9 <= beta <= math.pi + 1e-9
    forearm = math.sqrt(
        geom.l2**2 + chord**2 - 2.0 * geom.l2 * chord * math.cos(beta)
    )
    assert forearm == pytest.approx(geom.d4, abs=1e-9)


# ---------------------------------------------------------------- angles


def test_normalize_angle_wraps_into_half_open_interval():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(math.pi) == pytest.approx(math.pi)
    assert normalize_angle(-math.pi) == pytest.approx(math.pi)
    assert normalize_angle(3.0 * math.pi) == pytest.approx(math.pi)
    assert normalize_angle(-0.5) == pytest.approx(-0.5)
    for k in range(-4, 5):
        assert normalize_angle(1.25 + 2.0 * math.pi * k) == pytest.approx(1.25)


# ---------------------------------------------------------------- FK


def test_home_pose_golden(geom):
    pose = forward_kinematics(JointAngles(0, 0, 0, 0, 0, 0), geom)
    # straight-up arm: tip at (l1, 0, d1 + l2 + d4 + d6), identity rotation
    assert np.allclose(pose.position, [65.0, 0.0, 767.0], atol=1e-12)
    assert np.allclose(pose.rotation, np.eye(3), atol=1e-12)


def test_fk_golden_values(geom):
    q = JointAngles(*(d * DEG for d in (30.0, -20.0, 50.0, 40.0, 60.0, -70.0)))
    pose = forward_kinematics(q, geom)
    assert np.allclose(
        pose.position,
        [348.0290362778085, 245.92979045885642, 567.5347211580006],
        atol=1e-9,
    )
    assert np.allclose(
        pose.rotation,
        [
            [0.9415111107797445, -0.16069690242163479, 0.296198132726024],
            [-0.1606969024216349, 0.5584888892202555, 0.8137976813493735],
            [-0.2961981327260239, -0.8137976813493736, 0.5000000000000001],
        ],
        atol=1e-9,
    )

    q = JointAngles(*(d * DEG for d in (-120.0, 35.0, 110.0, -15.0, 135.0, 25.0)))
    pose = forward_kinematics(q, geom)
    assert np.allclose(
        pose.position,
        [-87.24736017455203, -125.49508238367491, 427.8017268378438],
        atol=1e-9,
    )


def test_fk_matches_reference_chain(geom, rng):
    for q in random_joint_tuples(300, rng):
        q = JointAngles(*q)
        pose = forward_kinematics(q, geom)
        ref = fk_reference(q, geom)
        assert np.abs(pose.position - ref[:3, 3]).max() < 1e-9
        assert np.abs(pose.rotation - ref[:3, :3]).max() < 1e-9


def backed_off(pose, geom):
    """The tip backed off d6 along the approach axis: the wrist center."""
    return pose.position - geom.d6 * pose.rotation[:, 2]


def test_tip_to_wrist_center_distance_is_d6(geom, rng):
    for q in random_joint_tuples(100, rng):
        pose = forward_kinematics(JointAngles(*q), geom)
        wc = backed_off(pose, geom)
        assert np.linalg.norm(pose.position - wc) == pytest.approx(geom.d6, abs=1e-9)


def test_base_yaw_sweep_keeps_height(geom):
    rest = (0.3, 1.1, 0.0, 0.9, 0.4)
    heights = [
        forward_kinematics(JointAngles(t1, *rest), geom).position[2]
        for t1 in np.linspace(-math.pi, math.pi, 37)
    ]
    assert np.ptp(heights) < 1e-9


def test_fk_rotation_always_orthonormal(geom, rng):
    for q in random_joint_tuples(100, rng):
        assert forward_kinematics(JointAngles(*q), geom).rotation_error() <= 1e-12


# ---------------------------------------------------------------- wrist center


def test_wrist_center_matches_chain_joint5_origin(geom, rng):
    for q in random_joint_tuples(100, rng):
        q = JointAngles(*q)
        pose = forward_kinematics(q, geom)
        ref = wrist_center_reference(q, geom)
        assert np.abs(backed_off(pose, geom) - ref).max() < 1e-9


def test_wrist_center_independent_of_wrist_joints(geom, rng):
    arm = (0.4, -0.3, 1.2)
    base = backed_off(forward_kinematics(JointAngles(*arm, 0.0, 0.5, 0.0), geom), geom)
    for _ in range(50):
        t4, t5, t6 = rng.uniform(-math.pi, math.pi, 3)
        wc = backed_off(
            forward_kinematics(JointAngles(*arm, t4, abs(t5), t6), geom), geom
        )
        assert np.abs(wc - base).max() < 1e-9


# ---------------------------------------------------------------- IK


def test_ik_round_trip_random(geom, rng):
    for q in random_joint_tuples(2000, rng):
        pos_err, rot_err, _ = ik_roundtrip_errors(JointAngles(*q), geom)
        assert pos_err < 1e-9
        assert rot_err < 1e-9


@settings(max_examples=200, deadline=None)
@given(
    t1=st.floats(-math.pi, math.pi),
    t2=st.floats(-135 * DEG, 135 * DEG),
    t3=st.floats(0.0, 170 * DEG),
    t4=st.floats(-math.pi, math.pi),
    t5=st.floats(0.0, math.pi),
    t6=st.floats(-math.pi, math.pi),
)
# back-reaching branch: elevation and alpha + beta differ by exactly 2 pi
@example(t1=0.0, t2=2.3125, t3=2.75, t4=0.0, t5=0.0, t6=0.0)
def test_ik_round_trip_property(t1, t2, t3, t4, t5, t6):
    geom = RobotGeometry()
    pos_err, rot_err, sol = ik_roundtrip_errors(JointAngles(t1, t2, t3, t4, t5, t6), geom)
    assert pos_err < 1e-9
    assert rot_err < 1e-9
    # elbow-up branch only: upper-arm elevation equals alpha + beta, as
    # angles (modulo 2 pi)
    assert_elbow_up(sol, geom)


def test_ik_theta1_zero_on_positive_x_axis(geom):
    sol = inverse_kinematics(Pose.tool_down(300.0, 0.0, 50.0), geom)
    assert sol.theta1 == pytest.approx(0.0, abs=1e-12)


def test_ik_fully_stretched_target(geom):
    # wrist center at (l1 + l2 + d4, 0, d1): chord equals l2 + d4 exactly
    reach = geom.l2 + geom.d4
    pose = Pose.tool_down(geom.l1 + reach, 0.0, geom.d1 - geom.d6)
    sol = inverse_kinematics(pose, geom)
    chord, alpha = oracle_chord(sol, geom)
    beta = normalize_angle(sol.theta2 + SHOULDER_ELEVATION_OFFSET - alpha)
    assert chord == pytest.approx(reach, abs=1e-9)
    assert beta == pytest.approx(0.0, abs=1e-6)
    assert sol.theta3 == pytest.approx(0.0, abs=1e-6)  # interior angle = pi
    back = forward_kinematics(sol, geom)
    assert np.abs(back.position - pose.position).max() < 1e-9


def test_ik_wrist_singular_flag(geom):
    # a straight-down tool pins joint 4 to 0 and joint 5 to exactly pi
    sol = inverse_kinematics(Pose.tool_down(280.0, 60.0, 40.0), geom)
    assert sol.theta4 == 0.0
    assert sol.theta5 in (0.0, math.pi)
    assert sol.theta5 == math.pi

    q = JointAngles(0.2, -0.4, 0.9, 0.3, 1.0, -0.2)
    sol = inverse_kinematics(forward_kinematics(q, geom), geom)
    assert sol.theta5 not in (0.0, math.pi)
    assert sol.theta4 == pytest.approx(0.3, abs=1e-9)


def test_ik_back_reaching_branch(geom):
    # upper arm pitched past vertical carries the wrist center across
    # the base axis; only the yaw-flipped negative-radial branch solves
    q = JointAngles(0.0, 134.0 * DEG, 169.0 * DEG, 0.5, 1.0, -0.3)
    pose = forward_kinematics(q, geom)
    assert pose.position[0] < 0.0 or math.hypot(*pose.position[:2]) < geom.l1
    pos_err, rot_err, sol = ik_roundtrip_errors(q, geom)
    assert pos_err < 1e-9
    assert rot_err < 1e-9
    assert radial_reference(sol, geom) < 0.0


def test_ik_unreachable_beyond_max_extension(geom):
    with pytest.raises(UnreachableError) as err:
        inverse_kinematics(Pose.tool_down(700.0, 0.0, 50.0), geom)
    # a single pose's message has no waypoint prefix
    assert str(err.value).startswith("elbow triangle (chord ")


def test_ik_unreachable_annulus_inner_hole(geom):
    # wrist center on the base axis at shoulder height: 65 mm from the
    # shoulder in either yaw branch, inside the |l2 - d4| = 83 mm hole
    pose = Pose.tool_down(0.0, 0.0, geom.d1 - geom.d6)
    with pytest.raises(UnreachableError):
        inverse_kinematics(pose, geom)


def test_ik_joint_limit_violation_reports_joint(geom, monkeypatch):
    tight_elbow = (0.0, math.radians(60.0))
    monkeypatch.setattr(
        kinematics, "JOINT_LIMITS", JOINT_LIMITS[:2] + (tight_elbow,) + JOINT_LIMITS[3:]
    )
    with pytest.raises(JointLimitError) as err:
        inverse_kinematics(Pose.tool_down(150.0, 0.0, 30.0), geom)
    assert str(err.value).startswith("joint 3 angle ")


def test_joint_limit_failure_is_an_unreachable_pose(geom, monkeypatch):
    # one except clause covers both: past a stop, the arm cannot take the pose
    assert issubclass(JointLimitError, UnreachableError)
    tight_elbow = (0.0, math.radians(60.0))
    monkeypatch.setattr(
        kinematics, "JOINT_LIMITS", JOINT_LIMITS[:2] + (tight_elbow,) + JOINT_LIMITS[3:]
    )
    ok, why = is_reachable((150.0, 0.0, 30.0), geom)
    assert not ok and why.startswith("joint 3 angle ")


# Far enough out that the back-reaching branch is beyond the reach, so
# a limit failure of the aimed branch is the error raised.
LIMIT_PROBE = JointAngles(0.2, -0.4, 0.9, 0.3, 1.0, -0.2)


def limit_for(angle, grace_sign):
    """The limit L with L + grace_sign * LIMIT_GRACE == angle in floats."""
    bound = angle - grace_sign * LIMIT_GRACE
    for _ in range(8):
        reached = bound + grace_sign * LIMIT_GRACE
        if reached == angle:
            return bound
        bound = np.nextafter(bound, math.inf if reached < angle else -math.inf)
    raise AssertionError(f"no limit puts {angle!r} on the bound")


def limit_message(j, angle, lo, hi):
    return (
        f"joint {j} angle {math.degrees(angle):.3f} deg outside "
        f"[{math.degrees(lo):.3f}, {math.degrees(hi):.3f}] deg"
    )


@pytest.mark.parametrize("side", ["lo", "hi"])
@pytest.mark.parametrize("j", range(1, 7))
def test_ik_limit_bound_is_inclusive(geom, monkeypatch, j, side):
    # an angle exactly on lo - LIMIT_GRACE or hi + LIMIT_GRACE solves;
    # the next float past the bound fails, naming the joint
    pose = forward_kinematics(LIMIT_PROBE, geom)
    solved = inverse_kinematics(pose, geom)
    angle = solved[j - 1]
    beyond = np.nextafter(angle, math.inf if side == "lo" else -math.inf)
    for target in (angle, beyond):
        lo, hi = JOINT_LIMITS[j - 1]
        if side == "lo":
            lo = limit_for(target, -1.0)
        else:
            hi = limit_for(target, 1.0)
        limits = JOINT_LIMITS[: j - 1] + ((lo, hi),) + JOINT_LIMITS[j:]
        monkeypatch.setattr(kinematics, "JOINT_LIMITS", limits)
        if target == angle:
            assert inverse_kinematics(pose, geom) == solved
        else:
            with pytest.raises(JointLimitError) as err:
                inverse_kinematics(pose, geom)
            assert str(err.value) == limit_message(j, angle, lo, hi)


@pytest.mark.parametrize("j", range(1, 7))
def test_check_limits_names_nan_joint(j):
    angles = [(lo + hi) / 2.0 for lo, hi in JOINT_LIMITS]
    angles[j - 1] = math.nan
    lo, hi = JOINT_LIMITS[j - 1]
    with pytest.raises(JointLimitError) as err:
        check_limits(JointAngles(*angles))
    assert str(err.value) == limit_message(j, math.nan, lo, hi)


@pytest.mark.parametrize(
    "j, entry, value",
    [
        # under the tool-down rotation the wrist is singular and theta6
        # reads r11 and r21; under LIMIT_PROBE's it reads m31 and m32
        (6, (0, 0), math.nan),
        (6, (1, 0), math.nan),
        (6, (2, 0), math.nan),
    ],
)
def test_ik_nan_wrist_angle_fails_the_limit_check(geom, j, entry, value):
    # a NaN fails the one comparison per joint in the run's wrist half,
    # on both branches, and the joint is named.  Only theta6 can be NaN
    # at a finite wrist center: r13, r23 and m33 place the wrist center
    # too, and a non-finite one takes it out of reach first.  A NaN yaw
    # needs a NaN coordinate, which is a ValueError.
    row, col = entry
    pose = forward_kinematics(LIMIT_PROBE, geom)
    if row < 2:
        pose = Pose.tool_down(300.0, 20.0, 50.0)
    rot = pose.rotation.tolist()
    rot[row][col] = value
    x, y, z = pose.position.tolist()
    with pytest.raises(JointLimitError) as err:
        kinematics.solve_path([(x, y, z), (x, y, z - 1.0)], rot, geom)
    lo, hi = JOINT_LIMITS[j - 1]
    where = f"waypoint 0 at ({x:.3f}, {y:.3f}, {z:.3f})"
    assert str(err.value) == f"{where}: {limit_message(j, math.nan, lo, hi)}"


def test_ik_nan_position_is_value_error(geom):
    # a NaN coordinate makes the elbow cosine NaN, which fails the reach
    # comparison; it is bad input, not a pose past a joint stop
    for point in ((math.nan, 0.0, 50.0), (300.0, 0.0, math.nan), (300.0, math.nan, 50.0)):
        with pytest.raises(ValueError, match="^target position is not finite$"):
            inverse_kinematics(Pose.tool_down(*point), geom)
    path = [(300.0, 0.0, 50.0), (300.0, 0.0, math.nan)]
    with pytest.raises(ValueError, match="^target position is not finite$"):
        solve_path(path, TOOL_DOWN_ROTATION.tolist(), geom)
    # an infinite coordinate stays out of reach
    with pytest.raises(UnreachableError, match="chord inf mm"):
        inverse_kinematics(Pose.tool_down(math.inf, 0.0, 50.0), geom)


def test_ik_nan_mid_run_is_value_error(geom):
    # a NaN x breaks a run of equal (x, y): it starts a run of its own,
    # since a NaN equals nothing, and fails unprefixed
    path = [(300.0, 10.0, 50.0 - 5.0 * j) for j in range(6)]
    path[3] = (math.nan, 10.0, path[3][2])
    with pytest.raises(ValueError, match="^target position is not finite$"):
        solve_path(path, TOOL_DOWN_ROTATION.tolist(), geom)
    rows = []
    with pytest.raises(ValueError, match="^target position is not finite$"):
        kinematics._path_kernel(path, TOOL_DOWN_ROTATION.tolist(), geom, rows)
    assert rows == solve_path(path[:3], TOOL_DOWN_ROTATION.tolist(), geom)


@pytest.mark.parametrize(
    "point",
    [
        (math.inf, math.nan, 50.0),
        (300.0, math.inf, math.nan),
        (math.nan, math.inf, 50.0),
        (-math.inf, 0.0, math.nan),
    ],
)
def test_ik_nan_beside_an_infinite_coordinate_is_value_error(geom, point):
    # hypot(inf, nan) is inf, so the chord alone reads out of reach
    with pytest.raises(ValueError, match="^target position is not finite$"):
        inverse_kinematics(Pose.tool_down(*point), geom)
    with pytest.raises(ValueError, match="^target position is not finite$"):
        solve_path([(300.0, 0.0, 50.0), point], TOOL_DOWN_ROTATION.tolist(), geom)
    with pytest.raises(ValueError, match="^target position is not finite$"):
        is_reachable(point, geom)


@pytest.mark.parametrize(
    "point", [(math.inf, 0.0, 50.0), (math.inf, -math.inf, 50.0), (300.0, 0.0, math.inf)]
)
def test_ik_infinite_coordinates_without_nan_are_out_of_reach(geom, point):
    # inf + -inf is NaN, yet no coordinate is: still out of reach
    with pytest.raises(UnreachableError, match="chord inf mm"):
        inverse_kinematics(Pose.tool_down(*point), geom)
    assert is_reachable(point, geom)[0] is False


def test_ik_rejects_non_orthonormal_rotation(geom):
    bad = Pose(np.eye(3) * 1.01, np.array([300.0, 0.0, 50.0]))
    with pytest.raises(ValueError):
        inverse_kinematics(bad, geom)


@pytest.mark.parametrize("entry", range(9))
def test_ik_rejects_nan_rotation_entry(geom, entry):
    # a NaN anywhere in R must fail the check, not drop out of the max
    rot = TOOL_DOWN_ROTATION.copy()
    rot.flat[entry] = np.nan
    with pytest.raises(ValueError, match="not orthonormal"):
        inverse_kinematics(Pose(rot, np.array([300.0, 0.0, 50.0])), geom)


@pytest.mark.parametrize(
    "rot",
    [np.diag([1.0, 1.0, -1.0]), 1.001 * np.eye(3), TOOL_DOWN_ROTATION @ np.diag([1.0, -1.0, 1.0])],
    ids=["reflection", "scaled", "tool-down-reflected"],
)
def test_ik_rejects_improper_or_scaled_rotation(geom, rot):
    with pytest.raises(ValueError, match="not orthonormal"):
        inverse_kinematics(Pose(rot, np.array([300.0, 0.0, 50.0])), geom)


def test_rotation_error_matches_matrix_form(geom, rng):
    # the closed form reads what R^T R - I and det(R) - 1 read
    for q in random_joint_tuples(50, rng):
        r = forward_kinematics(JointAngles(*q), geom).rotation + rng.normal(0, 1e-3, (3, 3))
        matrix = max(np.abs(r.T @ r - np.eye(3)).max(), abs(np.linalg.det(r) - 1.0))
        assert Pose(r, np.zeros(3)).rotation_error() == pytest.approx(matrix, rel=1e-9)


def test_ik_trace_internal_consistency(geom, rng):
    # the solution's chord, from the reference chain, is the target's:
    # its wrist center seen in the plane of the solved base yaw
    for q in random_joint_tuples(200, rng):
        pose = forward_kinematics(JointAngles(*q), geom)
        sol = inverse_kinematics(pose, geom)
        cx, cy, cz = backed_off(pose, geom)
        c1, s1 = math.cos(sol.theta1), math.sin(sol.theta1)
        radial, z = cx * c1 + cy * s1 - geom.l1, cz - geom.d1
        assert -cx * s1 + cy * c1 == pytest.approx(0.0, abs=1e-9)
        chord, alpha = oracle_chord(sol, geom)
        assert chord == pytest.approx(math.hypot(radial, z), abs=1e-9)
        assert alpha == pytest.approx(math.atan2(z, radial), abs=1e-9)
        # elbow-up: elevation of the upper arm is alpha + beta (modulo 2 pi)
        assert_elbow_up(sol, geom)


def test_ik_theta1_equivariance_under_base_rotation(geom):
    pose = Pose.tool_down(310.0, 20.0, 60.0)
    base = inverse_kinematics(pose, geom)
    for phi in (-2.0, -0.7, 0.4, 1.9):
        rz = np.array(
            [
                [math.cos(phi), -math.sin(phi), 0.0],
                [math.sin(phi), math.cos(phi), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        turned = Pose(rz @ pose.rotation, rz @ pose.position)
        sol = inverse_kinematics(turned, geom)
        assert normalize_angle(sol.theta1 - base.theta1 - phi) == pytest.approx(
            0.0, abs=1e-9
        )
        assert sol.theta2 == pytest.approx(base.theta2, abs=1e-9)
        assert sol.theta3 == pytest.approx(base.theta3, abs=1e-9)
        assert sol.theta5 == pytest.approx(base.theta5, abs=1e-9)


# ---------------------------------------------------------------- path solve

GEOM = RobotGeometry()
IN_LIMITS = st.tuples(*(st.floats(lo, hi) for lo, hi in JOINT_LIMITS))


@st.composite
def legs(draw):
    """(rotation, points), one of two kinds.

    A straight leg from the tip of an in-limit posture (back-reaching
    ones included) under that posture's rotation or the tool-down one,
    to the tip of another posture or to a point anywhere around the arm:
    outside the reach, in the inner hole, or over the base where joint
    limits stop the aimed branch.

    Or a vertical leg, whose points share their (x, y): a posture's tip
    or a point near the yaw axis, where the aimed branch gives way to
    the back-reaching one part way down.  A zero coordinate takes a sign
    drawn per point, so runs of equal (x, y) bits end where 0.0 and -0.0
    alternate."""
    start = forward_kinematics(JointAngles(*draw(IN_LIMITS)), GEOM)
    rotation = TOOL_DOWN_ROTATION if draw(st.booleans()) else start.rotation
    count = draw(st.integers(1, 40))
    if draw(st.booleans()):
        if draw(st.booleans()):
            end = forward_kinematics(JointAngles(*draw(IN_LIMITS)), GEOM).position
        else:
            end = np.array(
                draw(st.tuples(st.floats(-700.0, 700.0), st.floats(-700.0, 700.0),
                               st.floats(-400.0, 800.0)))
            )
        return rotation, np.linspace(start.position, end, count)
    near_axis = st.sampled_from([0.0, 30.0, -30.0]) | st.floats(-100.0, 100.0)
    x, y = start.position[:2] if draw(st.booleans()) else draw(st.tuples(near_axis, near_axis))
    signs = st.lists(st.sampled_from([1.0, -1.0]), min_size=count, max_size=count)
    zs = np.linspace(start.position[2], draw(st.floats(-400.0, 800.0)), count)
    points = [
        (signed(x, sx), signed(y, sy), z)
        for sx, sy, z in zip(draw(signs), draw(signs), zs.tolist())
    ]
    return rotation, np.array(points).reshape(-1, 3)


def signed(v, sign):
    """`v`, or a zero `v` with the sign of `sign`."""
    return math.copysign(v, sign) if v == 0.0 else v


def scalar_solves(rotation, points, geom):
    """`oracles.ik_point_reference` point by point up to the first
    failure: (angles, failing row or None, its error or None)."""
    solve, _ = ik_point_reference(rotation.tolist(), geom)
    rows = []
    for i, point in enumerate(points.tolist()):
        try:
            rows.append(solve(*point))
        except (UnreachableError, ValueError) as exc:
            return rows, i, exc
    return rows, None, None


def as_bytes(rows):
    return np.array(rows, dtype=float).reshape(-1, 6).tobytes()


def assert_path_solve_matches_scalar(rotation, points, geom):
    """The kernel, as a path and point by point, against the reference:
    angles by bytes (signed zeros included: the trace CSV prints them),
    errors by type and message."""
    rows, bad_row, error = scalar_solves(rotation, points, geom)
    for i, point in enumerate(points[:len(rows)]):
        assert as_bytes([inverse_kinematics(Pose(rotation, point), geom)]) == as_bytes(rows[i])
    solved = solve_path(points[:len(rows)].tolist(), rotation.tolist(), geom)
    assert as_bytes(solved) == as_bytes(rows)
    if bad_row is None:
        return
    with pytest.raises((UnreachableError, ValueError)) as alone:
        inverse_kinematics(Pose(rotation, points[bad_row]), geom)
    assert type(alone.value) is type(error) and str(alone.value) == str(error)
    with pytest.raises((UnreachableError, ValueError)) as caught:
        solve_path(points.tolist(), rotation.tolist(), geom)
    assert type(caught.value) is type(error)
    x, y, z = points[bad_row]
    where = f"waypoint {bad_row} at ({x:.3f}, {y:.3f}, {z:.3f})"
    assert str(caught.value) == f"{where}: {error}"


def tool_down_leg(start, end, count):
    return TOOL_DOWN_ROTATION, np.linspace(start, end, count)


def tool_down_vertical(x, y, x_signs, y_signs, top, bottom):
    """A vertical tool-down leg at (x, y), a zero coordinate taking the
    signs given point by point."""
    zs = np.linspace(top, bottom, len(x_signs)).tolist()
    points = [
        (signed(x, sx), signed(y, sy), z) for sx, sy, z in zip(x_signs, y_signs, zs)
    ]
    return TOOL_DOWN_ROTATION, np.array(points)


# runs of one, two and three points of equal (x, y) bits
SIGNS = (1, 1, -1, 1, 1, 1, -1, -1, 1, -1, -1, -1, 1, -1)
TOOL_DOWN_NEGATIVE_ZEROS = np.array([[1.0, 0.0, -0.0], [0.0, -1.0, -0.0], [0.0, 0.0, -1.0]])
NEARLY_TOOL_DOWN = np.array([[1.0, 0.0, 1e-300], [0.0, -1.0, 0.0], [1e-300, 0.0, -1.0]])
# runs of four, three, one, three and one points of one sign
ZERO_RUNS = (1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0, -1.0, -1.0, -1.0, 1.0)
AXIS_DESCENT = tool_down_vertical(0.0, 0.0, SIGNS, SIGNS[1:] + SIGNS[:1], 550.0, 200.0)[1]
OFF_AXIS_DESCENT = tool_down_vertical(30.0, 0.0, SIGNS, SIGNS, 400.0, 100.0)[1]


@settings(max_examples=300, deadline=None)
@given(leg=legs())
# over the base the middle of the leg needs the back-reaching branch
@example(leg=tool_down_leg([100.0, 0.0, 300.0], [-100.0, 0.0, 300.0], 21))
# out of reach from the 7th point on
@example(leg=tool_down_leg([300.0, 0.0, 50.0], [900.0, 0.0, 50.0], 13))
# joint 2 past its stop near the base from the 8th point on
@example(leg=tool_down_leg([250.0, 0.0, 0.0], [0.0, 0.0, 0.0], 11))
# on the yaw axis, every sign of zero in x and y: the yaw and theta6
# follow the signs, so a run must end where a sign changes
@example(leg=tool_down_vertical(0.0, 0.0, SIGNS, SIGNS[3:] + SIGNS[:3], 550.0, 200.0))
# 30 mm from the axis the aimed branch gives way to the back-reaching
# one at the 11th point, mid-run; theta1 is 0.0 or -0.0 with y
@example(leg=tool_down_vertical(30.0, 0.0, SIGNS, SIGNS, 400.0, 100.0))
# ... at the 8th, and neither branch reaches from the 12th on, mid-run
@example(leg=tool_down_vertical(30.0, 0.0, SIGNS, SIGNS, 350.0, 0.0))
# tool down with -0.0 in column 3: the tip offset and the wrist's m13
# and m23 are zeros of either sign
@example(leg=(TOOL_DOWN_NEGATIVE_ZEROS, AXIS_DESCENT))
# r13 = 1e-300: wrist-singular, yet column 3 is not exactly vertical
@example(leg=(NEARLY_TOOL_DOWN, OFF_AXIS_DESCENT))
# runs of equal (x, y) where x or y is 0.0 or -0.0: a zero of one sign
# shares a run, and a sign change within it starts a new one
@example(leg=tool_down_vertical(0.0, 250.0, ZERO_RUNS, [1.0] * 12, 400.0, 0.0))
@example(leg=tool_down_vertical(300.0, 0.0, [1.0] * 12, ZERO_RUNS, 300.0, -100.0))
@example(leg=tool_down_vertical(0.0, 0.0, ZERO_RUNS, ZERO_RUNS[::-1], 550.0, 200.0))
def test_ik_path_matches_scalar_solves(leg):
    rotation, points = leg
    assert_path_solve_matches_scalar(rotation, points, GEOM)


def out_and_back(start, end, count):
    """A tool-down path from `start` to `end` and back, `count` points a way."""
    way = np.linspace(start, end, count)
    return TOOL_DOWN_ROTATION, np.concatenate([way, way[-2::-1]])


@settings(max_examples=300, deadline=None)
@given(
    leg=legs()
    | st.tuples(
        st.sampled_from([TOOL_DOWN_ROTATION]),
        st.lists(
            st.tuples(st.floats(-700.0, 700.0), st.floats(-700.0, 700.0), st.floats(-400.0, 800.0)),
            min_size=1,
            max_size=30,
        ).map(np.array),
    )
)
# out of reach and back: the elbow triangle fails mid-path
@example(leg=out_and_back([300.0, 0.0, 50.0], [700.0, 0.0, 50.0], 9))
# over the base and on: joint 2 past its stop mid-path
@example(leg=tool_down_leg([250.0, 0.0, 0.0], [-250.0, 0.0, 0.0], 21))
# the wrist center on the shoulder, between reachable points
@example(leg=(TOOL_DOWN_ROTATION, np.array([[300.0, 0.0, 50.0], [65.0, 0.0, 100.0], [300.0, 0.0, 40.0]])))
# a descent that neither branch reaches from its 12th point on, mid-run
@example(leg=tool_down_vertical(30.0, 0.0, SIGNS, SIGNS, 350.0, 0.0))
def test_ik_failure_records_match_scalar_solves(leg):
    # with failure records the kernel solves every point: a solved row is
    # the reference's by bytes, and a failure gives the reference's
    # error, type and message, from its record
    rotation, points = leg
    solve, _ = ik_point_reference(rotation.tolist(), GEOM)
    rows, failures = [], []
    kinematics._path_kernel(points.tolist(), rotation.tolist(), GEOM, rows, failures)
    assert len(rows) == len(points)
    failed = dict(failures)
    assert len(failed) == len(failures)
    for i, point in enumerate(points.tolist()):
        try:
            expected = solve(*point)
        except UnreachableError as exc:
            error = kinematics.failure_error(failed.pop(i), GEOM)
            assert type(error) is type(exc) and str(error) == str(exc)
            assert as_bytes(rows[i]) == as_bytes(kinematics.FAILED_ROW)
        else:
            assert as_bytes(rows[i]) == as_bytes(expected)
    assert failed == {}


def test_ik_failure_records_still_raise_on_nan(geom):
    path = [(300.0, 10.0, 50.0), (900.0, 0.0, 50.0), (math.nan, 0.0, 50.0), (300.0, 0.0, 40.0)]
    rows, failures = [], []
    with pytest.raises(ValueError, match="^target position is not finite$"):
        kinematics._path_kernel(path, TOOL_DOWN_ROTATION.tolist(), geom, rows, failures)
    assert len(rows) == 2 and [i for i, _ in failures] == [1]


def test_ik_path_branch_changes_mid_leg(geom):
    rotation, points = tool_down_leg([100.0, 0.0, 300.0], [-100.0, 0.0, 300.0], 21)
    angles = solve_path(points.tolist(), rotation.tolist(), geom)
    back = np.array([radial_reference(row, geom) for row in angles]) < 0.0
    assert back[5:16].all() and not back[:3].any() and not back[-3:].any()
    assert_path_solve_matches_scalar(rotation, points, geom)


def test_ik_empty_path(geom):
    assert solve_path(np.zeros((0, 3)).tolist(), TOOL_DOWN_ROTATION.tolist(), geom) == []


# ---------------------------------------------------------------- reachability


def test_origin_is_unreachable(geom):
    ok, why = is_reachable((0.0, 0.0, 0.0), geom)
    assert not ok
    assert why


def test_point_beyond_max_reach_is_unreachable(geom):
    r = geom.l1 + geom.l2 + geom.d4 + geom.d6 + 1.0
    ok, _ = is_reachable((r, 0.0, 100.0), geom)
    assert not ok


def test_scan_workspace_is_reachable(geom):
    for x, y, z in [
        (220.0, -72.0, 25.0),
        (334.0, 72.0, 25.0),
        (300.0, 0.0, 50.0),
        (120.0, 0.0, 0.0),
        (500.0, 0.0, 0.0),
    ]:
        ok, why = is_reachable((x, y, z), geom)
        assert ok, why


def test_reachability_agrees_with_ik_on_a_plane_sweep(geom):
    for x in np.linspace(-650.0, 650.0, 27):
        for z in np.linspace(-50.0, 700.0, 16):
            ok, _ = is_reachable((x, 0.0, z), geom)
            try:
                inverse_kinematics(Pose.tool_down(x, 0.0, z), geom)
                solved = True
            except (UnreachableError, JointLimitError):
                solved = False
            assert ok == solved


# ---------------------------------------------------------------- geometry


def test_geometry_validation():
    with pytest.raises(ValueError):
        RobotGeometry(l2=-1.0)
    with pytest.raises(ValueError):
        RobotGeometry(d1=0.0)


def test_tool_down_rotation_is_proper():
    r = TOOL_DOWN_ROTATION
    assert np.allclose(r.T @ r, np.eye(3))
    assert np.linalg.det(r) == pytest.approx(1.0)
    assert np.allclose(r[:, 2], [0.0, 0.0, -1.0])
