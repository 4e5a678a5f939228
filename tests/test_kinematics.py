import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from armscan import kinematics
from armscan.kinematics import (
    JOINT_LIMITS,
    SHOULDER_ELEVATION_OFFSET,
    TOOL_DOWN_ROTATION,
    IkTrace,
    JointAngles,
    JointLimitError,
    Pose,
    RobotGeometry,
    UnreachableError,
    forward_kinematics,
    inverse_kinematics,
    is_reachable,
    normalize_angle,
)

from conftest import random_joint_tuples
from oracles import fk_reference, wrist_center_reference

DEG = math.pi / 180.0


def ik_roundtrip_errors(q, geom):
    pose = forward_kinematics(q, geom)
    sol, trace = inverse_kinematics(pose, geom)
    back = forward_kinematics(sol, geom)
    pos_err = np.abs(back.position - pose.position).max()
    rot_err = np.abs(back.rotation - pose.rotation).max()
    return pos_err, rot_err, sol, trace


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
        pos_err, rot_err, _, _ = ik_roundtrip_errors(JointAngles(*q), geom)
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
    pos_err, rot_err, sol, trace = ik_roundtrip_errors(
        JointAngles(t1, t2, t3, t4, t5, t6), geom
    )
    assert pos_err < 1e-9
    assert rot_err < 1e-9
    # elbow-up branch only: upper-arm elevation equals alpha + beta, as
    # angles (modulo 2 pi)
    elevation = sol.theta2 + SHOULDER_ELEVATION_OFFSET
    assert normalize_angle(elevation - (trace.alpha + trace.beta)) == pytest.approx(
        0.0, abs=1e-9
    )


def test_ik_theta1_zero_on_positive_x_axis(geom):
    sol, _ = inverse_kinematics(Pose.tool_down(300.0, 0.0, 50.0), geom)
    assert sol.theta1 == pytest.approx(0.0, abs=1e-12)


def test_ik_fully_stretched_target(geom):
    # wrist center at (l1 + l2 + d4, 0, d1): chord equals l2 + d4 exactly
    reach = geom.l2 + geom.d4
    pose = Pose.tool_down(geom.l1 + reach, 0.0, geom.d1 - geom.d6)
    sol, trace = inverse_kinematics(pose, geom)
    assert trace.chord == pytest.approx(reach, abs=1e-9)
    assert trace.beta == pytest.approx(0.0, abs=1e-6)
    assert sol.theta3 == pytest.approx(0.0, abs=1e-6)  # interior angle = pi
    back = forward_kinematics(sol, geom)
    assert np.abs(back.position - pose.position).max() < 1e-9


def test_ik_wrist_singular_flag(geom):
    sol, trace = inverse_kinematics(Pose.tool_down(280.0, 60.0, 40.0), geom)
    assert trace.wrist_singular
    assert sol.theta4 == 0.0
    assert sol.theta5 == pytest.approx(math.pi)

    q = JointAngles(0.2, -0.4, 0.9, 0.3, 1.0, -0.2)
    _, trace = inverse_kinematics(forward_kinematics(q, geom), geom)
    assert not trace.wrist_singular


def test_ik_back_reaching_branch(geom):
    # upper arm pitched past vertical carries the wrist center across
    # the base axis; only the yaw-flipped negative-radial branch solves
    q = JointAngles(0.0, 134.0 * DEG, 169.0 * DEG, 0.5, 1.0, -0.3)
    pose = forward_kinematics(q, geom)
    assert pose.position[0] < 0.0 or math.hypot(*pose.position[:2]) < geom.l1
    pos_err, rot_err, sol, trace = ik_roundtrip_errors(q, geom)
    assert pos_err < 1e-9
    assert rot_err < 1e-9
    assert trace.radial < 0.0


def test_ik_unreachable_beyond_max_extension(geom):
    with pytest.raises(UnreachableError) as err:
        inverse_kinematics(Pose.tool_down(700.0, 0.0, 50.0), geom)
    assert err.value.row is None  # set by path solves only


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
    assert err.value.joint == 3


def test_ik_rejects_non_orthonormal_rotation(geom):
    bad = Pose(np.eye(3) * 1.01, np.array([300.0, 0.0, 50.0]))
    with pytest.raises(ValueError):
        inverse_kinematics(bad, geom)
    path = Pose(np.eye(3) * 1.01, np.array([[300.0, 0.0, 50.0], [310.0, 0.0, 50.0]]))
    with pytest.raises(ValueError):
        inverse_kinematics(path, geom)


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
    for q in random_joint_tuples(200, rng):
        pose = forward_kinematics(JointAngles(*q), geom)
        sol, trace = inverse_kinematics(pose, geom)
        assert trace.chord == pytest.approx(
            math.hypot(trace.radial, trace.z), abs=1e-9
        )
        assert trace.alpha == math.atan2(trace.z, trace.radial)
        assert abs(geom.l2 - geom.d4) - 1e-9 <= trace.chord <= geom.l2 + geom.d4 + 1e-9
        # elbow-up: elevation of the upper arm is alpha + beta (modulo 2 pi)
        elevation = sol.theta2 + SHOULDER_ELEVATION_OFFSET
        assert normalize_angle(
            elevation - (trace.alpha + trace.beta)
        ) == pytest.approx(0.0, abs=1e-9)


def test_ik_theta1_equivariance_under_base_rotation(geom):
    pose = Pose.tool_down(310.0, 20.0, 60.0)
    base, _ = inverse_kinematics(pose, geom)
    for phi in (-2.0, -0.7, 0.4, 1.9):
        rz = np.array(
            [
                [math.cos(phi), -math.sin(phi), 0.0],
                [math.sin(phi), math.cos(phi), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        turned = Pose(rz @ pose.rotation, rz @ pose.position)
        sol, _ = inverse_kinematics(turned, geom)
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
    """(rotation, points): a straight leg from the tip of an in-limit
    posture (back-reaching ones included) under that posture's rotation
    or the tool-down one, to the tip of another posture or to a point
    anywhere around the arm: outside the reach, in the inner hole, or
    over the base where joint limits stop the aimed branch."""
    start = forward_kinematics(JointAngles(*draw(IN_LIMITS)), GEOM)
    rotation = TOOL_DOWN_ROTATION if draw(st.booleans()) else start.rotation
    if draw(st.booleans()):
        end = forward_kinematics(JointAngles(*draw(IN_LIMITS)), GEOM).position
    else:
        end = np.array(
            draw(st.tuples(st.floats(-700.0, 700.0), st.floats(-700.0, 700.0),
                           st.floats(-400.0, 800.0)))
        )
    return rotation, np.linspace(start.position, end, draw(st.integers(1, 40)))


def scalar_solves(rotation, points, geom):
    """Scalar IK row by row up to the first failure:
    (angles, traces, failing row or None, its error or None)."""
    rows, traces = [], []
    for i, point in enumerate(points):
        try:
            angles, trace = inverse_kinematics(Pose(rotation, point), geom)
        except (UnreachableError, JointLimitError) as exc:
            return rows, traces, i, exc
        rows.append(angles)
        traces.append(trace)
    return rows, traces, None, None


def assert_path_solve_matches_scalar(rotation, points, geom):
    rows, traces, bad_row, error = scalar_solves(rotation, points, geom)
    path = Pose(rotation, points)
    if bad_row is not None:
        with pytest.raises((UnreachableError, JointLimitError)) as caught:
            inverse_kinematics(path, geom)
        assert type(caught.value) is type(error)
        assert caught.value.row == bad_row
        assert str(caught.value) == str(error)
        return
    angles, trace = inverse_kinematics(path, geom)
    # bit for bit, signed zeros included: the trace CSV prints these
    assert angles.tobytes() == np.array(rows, dtype=float).reshape(-1, 6).tobytes()
    for name in IkTrace.__dataclass_fields__:
        expected = np.array([getattr(t, name) for t in traces])
        assert getattr(trace, name).tobytes() == expected.tobytes(), name


def tool_down_leg(start, end, count):
    return TOOL_DOWN_ROTATION, np.linspace(start, end, count)


@settings(max_examples=300, deadline=None)
@given(leg=legs())
# over the base the middle of the leg needs the back-reaching branch
@example(leg=tool_down_leg([100.0, 0.0, 300.0], [-100.0, 0.0, 300.0], 21))
# out of reach from the 7th point on
@example(leg=tool_down_leg([300.0, 0.0, 50.0], [900.0, 0.0, 50.0], 13))
# joint 2 past its stop near the base from the 8th point on
@example(leg=tool_down_leg([250.0, 0.0, 0.0], [0.0, 0.0, 0.0], 11))
def test_ik_path_matches_scalar_solves(leg):
    rotation, points = leg
    assert_path_solve_matches_scalar(rotation, points, GEOM)


def test_ik_path_branch_changes_mid_leg(geom):
    rotation, points = tool_down_leg([100.0, 0.0, 300.0], [-100.0, 0.0, 300.0], 21)
    _, trace = inverse_kinematics(Pose(rotation, points), geom)
    back = trace.radial < 0.0
    assert back[5:16].all() and not back[:3].any() and not back[-3:].any()
    assert_path_solve_matches_scalar(rotation, points, geom)


def test_ik_empty_path(geom):
    angles, trace = inverse_kinematics(Pose(TOOL_DOWN_ROTATION, np.zeros((0, 3))), geom)
    assert angles.shape == (0, 6) and angles.dtype == float
    for name in IkTrace.__dataclass_fields__:
        assert getattr(trace, name).shape == (0,), name
    assert trace.z.dtype == float and trace.wrist_singular.dtype == bool


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
