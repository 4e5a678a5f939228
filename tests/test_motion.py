import math
import struct
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from armscan import motion
from armscan.kinematics import (
    TOOL_DOWN_ROTATION,
    JointAngles,
    JointLimitError,
    RobotGeometry,
    UnreachableError,
    check_limits,
    forward_kinematics,
    is_reachable,
)
from armscan.meshio import TriangleMesh, write_atomic
from armscan.motion import (
    JointTrace,
    append_rows,
    leg_between,
    line_waypoints,
    plan_line,
    probe_cycle,
)
from armscan.scene import (
    CONTACT_MESH,
    CONTACT_TABLE,
    CONTACT_UNREACHABLE,
    NoiseModel,
    TargetScene,
    probe_contact,
)

from oracles import line_waypoints_reference, probe_cycle_per_leg, trace_csv_reference

POINT_BITS = struct.Struct("3d").pack


def plate_scene(z=25.0, size=200.0, x0=200.0, y0=-100.0, **kw):
    return TargetScene(
        TriangleMesh.from_vertices(
            [
                [[x0, y0, z], [x0 + size, y0, z], [x0, y0 + size, z]],
                [[x0 + size, y0, z], [x0 + size, y0 + size, z], [x0, y0 + size, z]],
            ]
        ),
        **kw,
    )


def lateral_table(x, y, from_xy, safe_z, geom):
    """What a scan's precheck hands a cycle: a table holding the solve
    of (x, y, safe_z) at row 0, then the lateral leg from
    (*from_xy, safe_z) solved whole.  Returns (table, 0, the leg's
    rows): [] without `from_xy`, None when the leg fails.  Raises
    UnreachableError when (x, y, safe_z) has no solve."""
    here = (x, y, safe_z)
    table = array("d")
    append_rows(table, plan_line([here], geom))
    if from_xy is None:
        return table, 0, []
    try:
        first = append_rows(table, plan_line(line_waypoints((*from_xy, safe_z), here), geom))
    except UnreachableError:
        return table, 0, None
    return table, 0, list(range(first, len(table) // 6))


def cycle_angles(x, y, *, from_xy=None, **kw):
    """`probe_cycle` after `lateral_table`: its contact and its (N, 6) angles."""
    table, here_row, lateral = lateral_table(x, y, from_xy, kw["safe_z"], kw["geom"])
    contact, rows = probe_cycle(x, y, table=table, here_row=here_row, lateral=lateral, **kw)
    return contact, JointTrace(table, rows).angles


# ------------------------------------------------------------------ path


def test_waypoints_count_100mm_by_10mm(monkeypatch):
    monkeypatch.setattr(motion, "STEP", 10.0)
    pts = np.array(line_waypoints([0, 0, 0], [100, 0, 0]))
    assert len(pts) == 11
    assert np.allclose(np.diff(pts[:, 0]), 10.0)


def test_waypoints_degenerate_segment(monkeypatch):
    monkeypatch.setattr(motion, "STEP", 10.0)
    pts = np.array(line_waypoints([5, 5, 5], [5, 5, 5]))
    assert pts.shape == (1, 3)
    assert np.allclose(pts[0], [5, 5, 5])


def test_waypoints_endpoints_exact_and_collinear(monkeypatch):
    monkeypatch.setattr(motion, "STEP", 7.0)
    start, end = np.array([230.0, -40.0, 60.0]), np.array([310.0, 55.0, 60.0])
    pts = np.array(line_waypoints(start, end))
    assert np.allclose(pts[0], start, atol=1e-12)
    assert np.allclose(pts[-1], end, atol=1e-12)
    seg = end - start
    for p in pts:
        cross = np.cross(seg, p - start)
        assert np.linalg.norm(cross) / np.linalg.norm(seg) < 1e-9
    gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert gaps.max() <= 7.0 + 1e-12
    assert np.ptp(gaps) < 1e-9


def test_leg_between_leaves_out_only_ends_with_the_points_bits():
    start, end = (300.0, 10.0, 60.0), (306.0, 10.0, 60.0)
    assert leg_between(start, end) == ([(303.0, 10.0, 60.0)], True, True)
    # y + 0.0 * dy turns -0.0 into 0.0: neither end keeps its point's bits
    start, end = (300.0, -0.0, 60.0), (306.0, -0.0, 60.0)
    assert leg_between(start, end) == (line_waypoints(start, end), False, False)
    # a one-waypoint leg is its start, left out once
    assert leg_between(start, start) == ([], True, False)


def test_waypoints_exact_multiple_no_phantom_interval(monkeypatch):
    monkeypatch.setattr(motion, "STEP", 0.1)
    pts = line_waypoints([0, 0, 0], [0.3, 0, 0])
    assert len(pts) == 4


SIGNED = st.sampled_from([0.0, -0.0]) | st.floats(-1000.0, 1000.0)
POINT = st.tuples(SIGNED, SIGNED, SIGNED)


@st.composite
def segments(draw):
    """(start, end): random, a whole number of STEPs long (along an axis
    or a 3-4-5 diagonal), or degenerate with its zeros' signs flipped."""
    start = draw(POINT)
    shape = draw(st.sampled_from(["random", "axis", "diagonal", "degenerate"]))
    if shape == "random":
        return start, draw(POINT)
    if shape == "degenerate":
        return start, tuple(-v if v == 0.0 else v for v in start)
    j = draw(st.integers(-40, 40))
    m = j * motion.STEP
    # 3j, 4j: a diagonal exactly 5j = j STEPs long
    steps = {"axis": [(m, 0.0, 0.0), (0.0, m, 0.0), (0.0, 0.0, m)],
             "diagonal": [(3.0 * j, 4.0 * j, 0.0), (0.0, 3.0 * j, -4.0 * j)]}[shape]
    step = draw(st.sampled_from(steps))
    return start, tuple(a + b for a, b in zip(start, step))


@settings(max_examples=300, deadline=None)
@given(segment=segments())
@example(segment=((0.0, -0.0, 60.0), (-0.0, 0.0, 60.0)))
@example(segment=((300.0, -0.0, 60.0), (300.0, -0.0, 25.0)))
@example(segment=((0.0, 0.0, 0.0), (0.3, 0.0, 0.0)))
# vertical legs: x and y worked out once, zeros of either sign kept
@example(segment=((-0.0, 12.5, 60.0), (-0.0, 12.5, 25.0)))
@example(segment=((0.0, -0.0, 60.0), (-0.0, 0.0, 17.3)))
@example(segment=((300.0, -0.0, 60.0), (300.0, 0.0, 61.0)))
# |dz| below the 1e-12 of a degenerate leg, and just above it
@example(segment=((300.0, 10.0, 0.0), (300.0, 10.0, 5e-13)))
@example(segment=((300.0, 10.0, 0.0), (300.0, 10.0, -2e-12)))
# a whole number of STEPs, down and up
@example(segment=((300.0, 10.0, 60.0), (300.0, 10.0, 60.0 - 7 * motion.STEP)))
@example(segment=((-0.0, 10.0, -40.0), (0.0, 10.0, -40.0 + 13 * motion.STEP)))
# legs along x: y and z worked out once, zeros of either sign kept
@example(segment=((240.1, -0.0, -0.0), (240.4, -0.0, -0.0)))
@example(segment=((-120.3, 0.0, 60.0), (-9.4, -0.0, 60.0)))
@example(segment=((0.0, 12.5, 0.0), (-0.0, 12.5, -0.0)))
@example(segment=((999_999.7, -1e6, 60.0), (1_000_000.0, -1e6, 60.0)))
@example(segment=((300.0, 10.0, 60.0), (300.0 - 9 * motion.STEP, 10.0, 60.0)))
def test_waypoints_match_the_array_form_bit_for_bit(segment):
    start, end = segment
    expected = line_waypoints_reference(start, end)
    for a, b in ((start, end), (list(start), np.array(end))):
        pts = line_waypoints(a, b)
        assert all(type(v) is float for p in pts for v in p)
        assert np.array(pts).shape == expected.shape
        assert np.array(pts).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "start, end",
    [
        ((300.0, 10.0, 0.0), (300.0, 10.0, 2e154)),  # |dz| squared overflows
        ((-0.0, 0.0, 1e200), (0.0, -0.0, -1e200)),
        ((300.0, 10.0, 60.0), (300.0, 10.0, math.nan)),  # a NaN z
        ((300.0, -0.0, math.nan), (300.0, -0.0, 25.0)),
    ],
)
def test_vertical_waypoints_fail_as_the_array_form(start, end):
    with pytest.raises((OverflowError, ValueError)) as expected:
        with np.errstate(over="ignore"):
            line_waypoints_reference(start, end)
    with pytest.raises(type(expected.value), match=f"^{expected.value}$"):
        line_waypoints(start, end)


# ------------------------------------------------------------------ planning


def test_plan_line_trace_positions_on_segment(geom, monkeypatch):
    monkeypatch.setattr(motion, "STEP", 8.0)
    start, end = [240, -30, 40], [320, 60, 40]
    rows = np.array(plan_line(line_waypoints(start, end), geom))
    pts = line_waypoints(start, end)
    assert rows.shape == (len(pts), 6)
    for angles, target in zip(rows, pts):
        back = forward_kinematics(angles, geom)
        assert np.abs(back.position - target).max() < 1e-9
        assert np.allclose(back.rotation, TOOL_DOWN_ROTATION, atol=1e-9)


def test_plan_line_limits_respected(geom):
    for angles in plan_line(line_waypoints([250, 0, 30], [300, 0, 30]), geom):
        check_limits(JointAngles(*angles))


def test_plan_line_descent_solves_its_wrist_once(geom, monkeypatch):
    # a vertical descent is one run, a zero coordinate's too: one wrist
    # half (one sin, of the yaw) and an elbow per waypoint (one sin
    # each, of theta3); line_waypoints would turn -0.0 into 0.0
    sin = math.sin
    for x, y in [(300.0, 10.0), (300.0, 0.0), (300.0, -0.0), (0.0, 300.0), (-0.0, 300.0)]:
        descent = [(x, y, z) for _, _, z in line_waypoints((x, y, 60.0), (x, y, 5.0))]
        assert len(descent) == 12
        calls = []
        monkeypatch.setattr(math, "sin", lambda a: calls.append(a) or sin(a))
        rows = plan_line(descent, geom)
        monkeypatch.undo()
        assert len(rows) == 12 and len(calls) == 1 + 12, (x, y)
        assert calls[0] == rows[0][0] and calls[1:] == [row[2] for row in rows]


def test_plan_line_solves_each_yaw_branch_once(geom, monkeypatch):
    # a point the aimed branch fails costs one elbow (one acos, one sin)
    # per yaw branch, whether the back-reaching branch solves it or both
    # fail; a run works each branch's wrist half out once (one sin)
    acos, sin = math.acos, math.sin
    acos_calls, sin_calls = [], []
    monkeypatch.setattr(math, "acos", lambda a: acos_calls.append(a) or acos(a))
    monkeypatch.setattr(math, "sin", lambda a: sin_calls.append(a) or sin(a))
    rows = plan_line([(-10.0, 0.0, z) for z in (175.0, 170.0, 165.0)], geom)
    assert [row[0] for row in rows] == [0.0] * 3  # the back-reaching yaw
    assert len(acos_calls) == 2 * 3 and len(sin_calls) == 2 + 2 * 3
    acos_calls.clear()
    with pytest.raises(JointLimitError, match="^waypoint 0 .*: joint 2 angle -140.642 deg "):
        plan_line([(-200.0, 0.0, -350.0)], geom)
    assert len(acos_calls) == 2


def test_plan_line_unreachable_names_waypoint(geom, monkeypatch):
    # end far outside the workspace: failure happens mid-path
    monkeypatch.setattr(motion, "STEP", 50.0)
    with pytest.raises(UnreachableError) as err:
        plan_line(line_waypoints([300, 0, 50], [900, 0, 50]), geom)
    assert str(err.value) == (
        "waypoint 6 at (600.000, 0.000, 50.000): elbow triangle (chord "
        "537.331 mm, annulus [83.000, 527.000]): cosine argument -1.081199 "
        "outside [-1, 1]"
    )


def test_plan_line_joint_limit_names_waypoint(geom, monkeypatch):
    # straight over the base: theta2 runs past its stop near the axis
    monkeypatch.setattr(motion, "STEP", 25.0)
    with pytest.raises(JointLimitError) as err:
        plan_line(line_waypoints([250, 0, 0], [0, 0, 0]), geom)
    assert str(err.value) == (
        "waypoint 7 at (75.000, 0.000, 0.000): joint 2 angle -145.722 deg "
        "outside [-135.000, 135.000] deg"
    )


# ------------------------------------------------------------------ cycle


def test_probe_cycle_hits_plate(geom):
    scene = plate_scene(25.0)
    (kind, z_true, _), rows = cycle_angles(
        300.0, 0.0, safe_z=80.0, geom=geom, scene=scene,
        error=NoiseModel().error_at(0),
    )
    assert kind == CONTACT_MESH
    assert z_true == 25.0
    positions = np.array(
        [forward_kinematics(a, geom).position for a in rows]
    )
    # starts and ends at the safe height, touches the plate in between
    assert positions[0, 2] == pytest.approx(80.0, abs=1e-9)
    assert positions[-1, 2] == pytest.approx(80.0, abs=1e-9)
    assert positions[:, 2].min() == pytest.approx(25.0, abs=1e-9)


def test_probe_cycle_descent_monotone(geom):
    scene = plate_scene(25.0)
    _, rows = cycle_angles(
        280.0, 20.0, safe_z=70.0, geom=geom, scene=scene,
        error=NoiseModel().error_at(0), from_xy=(260.0, -10.0),
    )
    z = np.array([forward_kinematics(a, geom).position[2] for a in rows])
    lateral = np.nonzero(np.abs(z - 70.0) > 1e-9)[0]
    first_move = lateral[0] if len(lateral) else len(z)
    bottom = int(np.argmin(z))
    descent, retract = z[first_move - 1 : bottom + 1], z[bottom:]
    assert (np.diff(descent) < 0).all()
    assert (np.diff(retract) > 0).all()
    assert len(z) == len(set(np.round(z, 9))) + len(lateral) == len(z)  # no duplicate seams
    # waypoints numbered contiguously by row
    csv = JointTrace(rows).to_csv()
    waypoints = [int(line.split(",")[0]) for line in csv.splitlines()[1:]]
    assert waypoints == list(range(len(rows)))


def test_probe_cycle_lateral_leg_at_safe_height(geom):
    scene = plate_scene(25.0)
    _, rows = cycle_angles(
        300.0, 30.0, safe_z=75.0, geom=geom, scene=scene,
        error=NoiseModel().error_at(0), from_xy=(250.0, -40.0),
    )
    pts = np.array([forward_kinematics(a, geom).position for a in rows])
    over = np.isclose(pts[:, 2], 75.0, atol=1e-9)
    # the xy travel happens only while at the safe height
    moving = np.linalg.norm(np.diff(pts[:, :2], axis=0), axis=1) > 1e-9
    assert all(over[i] and over[i + 1] for i in np.nonzero(moving)[0])


def test_probe_cycle_miss_table_mode(geom):
    scene = plate_scene(25.0, floor_mode="table")
    (kind, z_true, _), rows = cycle_angles(
        420.0, 0.0, safe_z=60.0, geom=geom, scene=scene,
        error=NoiseModel().error_at(3),
    )
    assert kind == CONTACT_TABLE
    assert z_true == 0.0
    z = np.array([forward_kinematics(a, geom).position[2] for a in rows])
    assert z.min() == pytest.approx(0.0, abs=1e-9)


def test_probe_cycle_unreachable_marked(geom):
    scene = plate_scene(25.0, size=600.0, x0=0.0, y0=-300.0)
    (kind, z_true, z_measured), rows = cycle_angles(
        590.0, 0.0, safe_z=60.0, geom=geom, scene=scene,
        error=NoiseModel().error_at(0),
    )
    assert kind == CONTACT_UNREACHABLE
    assert math.isnan(z_true) and math.isnan(z_measured)


def test_probe_cycle_noise_applied(geom):
    scene = plate_scene(25.0)
    noise = NoiseModel(sigma_contact=0.03, drift_per_contact=0.001, seed=5)
    (_, z_true, z_measured), _ = cycle_angles(
        290.0, 10.0, safe_z=70.0, geom=geom, scene=scene,
        error=noise.error_at(12),
    )
    assert z_measured == z_true + noise.error_at(12)


def test_probe_cycle_retract_replays_descent(geom, monkeypatch):
    # one path solve per cycle, the descent's waypoints below the safe
    # height; the retract is the descent's rows reversed bit for bit,
    # less the contact row, and ends on the safe-height row
    solved = []

    def counting_plan_line(waypoints, g):
        angles = plan_line(waypoints, g)
        solved.append(angles)
        return angles

    monkeypatch.setattr(motion, "plan_line", counting_plan_line)
    scene = plate_scene(25.0)
    noise = NoiseModel(sigma_contact=0.03, drift_per_contact=0.001, seed=11)
    calls, not_reversed = [], []
    for index, (x, y) in enumerate(
        (x, y) for x in np.linspace(220.0, 380.0, 11) for y in np.linspace(-60.0, 60.0, 7)
    ):
        table, here_row, lateral = lateral_table(x, y, (x - 7.0, y - 5.0), 73.0, geom)
        solved.clear()
        (kind, _, _), rows = probe_cycle(
            x, y, safe_z=73.0, geom=geom, scene=scene, error=noise.error_at(index),
            table=table, here_row=here_row, lateral=lateral,
        )
        assert kind == CONTACT_MESH
        calls.append(len(solved))
        angles = JointTrace(table, rows).angles
        descend = np.concatenate([JointTrace(table, [here_row]).angles, solved[0]])
        n, bottom = len(lateral), len(lateral) + len(solved[0])
        assert rows[:n] == lateral and rows[-1] == here_row
        assert np.array_equal(angles[n:bottom], descend[1:])
        if not np.array_equal(angles[bottom:], descend[-2::-1]):
            not_reversed.append((x, y))
    assert calls == [1] * 77
    assert not_reversed == []


COORD = st.floats(-450.0, 450.0)


@settings(max_examples=300, deadline=None)
@given(
    x=COORD,
    y=COORD,
    from_xy=st.none() | st.tuples(COORD, COORD),
    plate_z=st.sampled_from([25.0, 60.0]),
    floor_mode=st.sampled_from(["table", "skip"]),
    sigma=st.sampled_from([0.0]) | st.floats(0.0, 1.0),
    drift=st.sampled_from([0.0, 1e308]) | st.floats(-1000.0, 1000.0),
    seed=st.integers(0, 2**32),
    index=st.integers(0, 10_000),
)
# a lateral leg that fails, a descent that fails after a lateral that
# does not, a contact past the reach, and a zero-length descent onto a
# plate at the safe height
@example(x=123.0, y=-207.0, from_xy=(-413.0, -435.0), plate_z=25.0, floor_mode="table",
         sigma=0.0, drift=0.0, seed=0, index=1)
@example(x=-382.0, y=-442.0, from_xy=(-187.0, -89.0), plate_z=25.0, floor_mode="table",
         sigma=0.0, drift=0.0, seed=0, index=1)
@example(x=300.0, y=0.0, from_xy=(290.0, 5.0), plate_z=25.0, floor_mode="table",
         sigma=0.0, drift=1e308, seed=0, index=2)
@example(x=300.0, y=0.0, from_xy=(290.0, 5.0), plate_z=60.0, floor_mode="table",
         sigma=0.0, drift=0.0, seed=0, index=0)
def test_probe_cycle_matches_one_solve_per_leg(
    x, y, from_xy, plate_z, floor_mode, sigma, drift, seed, index
):
    # the cycle after a lateral leg solved ahead against the reference
    # that solves both legs itself: the same contact and the same rows,
    # bit for bit; a scan's cycles start over points it has solved
    geom = RobotGeometry()
    assume(is_reachable((x, y, 60.0), geom)[0])
    kw = dict(
        safe_z=60.0, geom=geom, scene=plate_scene(plate_z, floor_mode=floor_mode),
        error=NoiseModel(sigma_contact=sigma, drift_per_contact=drift, seed=seed).error_at(index),
        from_xy=from_xy,
    )
    (kind, z_true, z_measured), rows = cycle_angles(x, y, **kw)
    (ref_kind, ref_true, ref_measured), ref_rows = probe_cycle_per_leg(x, y, **kw)
    assert kind == ref_kind
    assert np.array([z_true, z_measured]).tobytes() == np.array([ref_true, ref_measured]).tobytes()
    assert rows.shape == ref_rows.shape
    assert rows.tobytes() == ref_rows.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    x=COORD,
    y=COORD,
    from_xy=st.tuples(COORD, COORD),
    plate_z=st.sampled_from([25.0, 60.0]),
    floor_mode=st.sampled_from(["table", "skip"]),
    drift=st.sampled_from([0.0, 1e308]) | st.floats(-1000.0, 1000.0),
    index=st.integers(0, 10_000),
)
# a negative zero: the descent's first waypoint is +0.0 and is solved
@example(x=300.0, y=-0.0, from_xy=(290.0, -0.0), plate_z=25.0, floor_mode="table",
         drift=0.0, index=0)
# from_xy bit-equal to (x, y): a one-waypoint lateral leg
@example(x=300.0, y=10.0, from_xy=(300.0, 10.0), plate_z=25.0, floor_mode="skip",
         drift=0.0, index=0)
def test_probe_cycle_reuses_safe_height_rows(x, y, from_xy, plate_z, floor_mode, drift, index):
    # a descent's first waypoint with the bits of (x, y, 60) takes its
    # row from the table instead of a solve, and no other waypoint has
    # those bits; the angles stay the reference's
    geom = RobotGeometry()
    assume(is_reachable((x, y, 60.0), geom)[0])
    kw = dict(
        safe_z=60.0, geom=geom, scene=plate_scene(plate_z, floor_mode=floor_mode),
        error=NoiseModel(drift_per_contact=drift).error_at(index),
    )
    solved = []

    def recording_plan_line(waypoints, g):
        solved.extend(waypoints)
        return plan_line(waypoints, g)

    table, here_row, lateral = lateral_table(x, y, from_xy, 60.0, geom)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(motion, "plan_line", recording_plan_line)
        (kind, z_true, z_measured), rows = probe_cycle(
            x, y, table=table, here_row=here_row, lateral=lateral, **kw
        )
    (ref_kind, ref_true, ref_measured), ref_rows = probe_cycle_per_leg(
        x, y, from_xy=from_xy, **kw
    )
    assert kind == ref_kind
    assert np.array([z_true, z_measured]).tobytes() == np.array([ref_true, ref_measured]).tobytes()
    assert JointTrace(table, rows).angles.tobytes() == ref_rows.tobytes()
    key = POINT_BITS(x, y, 60.0)
    assert key not in {POINT_BITS(*point) for point in solved}
    if rows[len(lateral or ()) :] and POINT_BITS(x + 0.0, y + 0.0, 60.0) == key:
        assert rows[-1] == here_row  # the retract ends on the table's row


def test_probe_cycle_solves_nothing_already_solved(geom, monkeypatch):
    # a lateral leg of two waypoints between solved safe-height points,
    # and a contact at the safe height: the cycle's one plan_line call
    # has nothing left to solve, and the table does not grow
    calls = []

    def recording_plan_line(waypoints, g):
        calls.append(list(waypoints))
        return plan_line(waypoints, g)

    table = array("d")
    append_rows(table, plan_line([(297.0, 4.0, 60.0), (300.0, 0.0, 60.0)], geom))
    monkeypatch.setattr(motion, "plan_line", recording_plan_line)
    (kind, _, _), rows = probe_cycle(
        300.0, 0.0, safe_z=60.0, geom=geom, scene=plate_scene(60.0),
        error=0.0, table=table, here_row=1, lateral=[0, 1],
    )
    assert kind == CONTACT_MESH
    assert calls == [[]]
    assert rows == [0, 1] and len(table) == 12


def test_probe_cycle_after_a_failed_lateral_leg_takes_its_contact(geom, monkeypatch):
    # one ray and no solve: the cell is unreachable with no rows
    rays = []

    def counting_probe_contact(*args):
        rays.append(args[:2])
        return probe_contact(*args)

    monkeypatch.setattr(motion, "probe_contact", counting_probe_contact)
    monkeypatch.setattr(motion, "plan_line", lambda *a: pytest.fail("a descent was planned"))
    contact, rows = probe_cycle(
        300.0, 0.0, safe_z=60.0, geom=geom, scene=plate_scene(25.0),
        error=0.0, table=array("d"), here_row=0, lateral=None,
    )
    assert contact[0] == CONTACT_UNREACHABLE and rows == [] and rays == [(300.0, 0.0)]


def test_probe_cycle_deterministic(geom):
    scene = plate_scene(25.0)
    noise = NoiseModel(sigma_contact=0.05, seed=99)
    kw = dict(safe_z=70.0, geom=geom, scene=scene, error=noise.error_at(7),
              from_xy=(250.0, 0.0))
    c1, t1 = cycle_angles(300.0, 20.0, **kw)
    c2, t2 = cycle_angles(300.0, 20.0, **kw)
    assert c1 == c2
    assert t1.tobytes() == t2.tobytes()


# ------------------------------------------------------------------ trace


def test_trace_csv_format(geom):
    trace = JointTrace([JointAngles(0.0, -math.pi / 2, math.pi / 4, 0.0, math.pi, 0.1)])
    csv = trace.to_csv()
    lines = csv.splitlines()
    assert lines[0].startswith("waypoint,theta1_deg")
    assert lines[1] == "0,0.000000,-90.000000,45.000000,0.000000,180.000000,5.729578"


def test_trace_csv_waypoints_are_row_numbers():
    angles = np.radians(np.arange(5 * 6).reshape(5, 6))
    lines = JointTrace(angles).to_csv().splitlines()
    assert len(lines) == 6
    assert [int(line.split(",")[0]) for line in lines[1:]] == [0, 1, 2, 3, 4]
    assert lines[3] == "2,12.000000,13.000000,14.000000,15.000000,16.000000,17.000000"
    assert JointTrace().to_csv() == lines[0] + "\n"


ANGLE = st.sampled_from([0.0, -0.0]) | st.floats(-2.0 * math.pi, 2.0 * math.pi)


@st.composite
def repeating_traces(draw):
    """(N, 6) rows drawn from a small pool, so rows repeat; beside each
    drawn row the pool holds one with its zeros' signs flipped and one
    with an entry moved by one np.nextafter step."""
    pool = []
    for row in draw(st.lists(st.tuples(*[ANGLE] * 6), min_size=1, max_size=4)):
        row = np.array(row)
        flipped, stepped = row.copy(), row.copy()
        zero = row == 0.0
        flipped[zero] = -row[zero]
        j = draw(st.integers(0, 5))
        stepped[j] = np.nextafter(row[j], draw(st.sampled_from([-math.inf, math.inf])))
        pool += [row, flipped, stepped]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=30))
    return np.array([pool[i] for i in picks]).reshape(-1, 6)


@settings(max_examples=200, deadline=None)
@given(angles=repeating_traces())
@example(angles=np.zeros((0, 6)))
def test_trace_csv_matches_one_format_string(angles):
    assert JointTrace(angles).to_csv() == trace_csv_reference(angles)
    # a reversed view, as the retract slices its descent
    assert JointTrace(angles[::-1]).to_csv() == trace_csv_reference(angles[::-1])


def test_trace_csv_tells_rows_apart_by_bits():
    # -0.0 == 0.0 as values, so rows told apart by value would print
    # one of these rows for all three
    angles = np.array([[0.0] * 6, [-0.0] * 6, [0.0, -0.0, 0.0, 0.0, 0.0, 0.0]])
    lines = JointTrace(angles).to_csv().splitlines()
    assert lines[1:] == [
        "0,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000",
        "1,-0.000000,-0.000000,-0.000000,-0.000000,-0.000000,-0.000000",
        "2,0.000000,-0.000000,0.000000,0.000000,0.000000,0.000000",
    ]
    assert JointTrace(angles).to_csv() == trace_csv_reference(angles)


def angle_texts(deg) -> list:
    """Each entry of `deg` as `to_csv` writes it: its comma and `%.6f`."""
    deg = np.asarray(deg, dtype=float)
    records = np.empty(deg.shape, dtype=motion._ANGLE)
    motion._format_angles(deg, records)
    return [bytes(r).replace(b"\0", b"").decode() for r in records.view(np.uint8).reshape(-1, 12)]


@settings(max_examples=300, deadline=None)
@given(k=st.integers(-10**9, 10**9))
# exact ties: dyadic values whose sixth decimal is followed by a 5
@example(k=7812)
@example(k=999_992_187)
@example(k=-999_992_188)
def test_trace_csv_rounds_near_ties_as_percent_f(k):
    tie = (k + 0.5) / 1e6
    up, down = np.nextafter(tie, math.inf), np.nextafter(tie, -math.inf)
    values = [tie, -tie, up, down, np.nextafter(up, math.inf), np.nextafter(down, -math.inf)]
    within = [v for v in values if float("%.6f" % abs(v)) < 1000.0]
    assert angle_texts(within) == [",%.6f" % v for v in within]
    # and through a trace, whose degrees come back within the band
    angles = np.radians([values])
    assert JointTrace(angles).to_csv() == trace_csv_reference(angles)


def test_trace_csv_signed_zeros_subnormals_and_the_thousand():
    tiny = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]
    halves = [-4e-7, 5e-7, -5e-7, -1.5e-6, 0.9999995, 999.9999994, -999.9999994]
    assert angle_texts(tiny + halves) == [",%.6f" % v for v in tiny + halves]
    below = np.nextafter(1000.0, 0.0)
    # in radians, as a table holds them; the last row prints as 1000
    for row in (halves[:6], halves[1:], [below, -below, 999.9999995, -1.0, 0.0, -0.0]):
        angles = np.array([tiny, np.radians(row)])
        assert JointTrace(angles).to_csv() == trace_csv_reference(angles)
    line = JointTrace([tiny]).to_csv().splitlines()[1]
    assert line == "0,0.000000,-0.000000,0.000000,-0.000000,0.000000,-0.000000"


def streamed_csv(trace) -> bytes:
    """The blocks `csv_blocks` yields, joined; each must equal the
    `to_csv` text and hold at most CSV_BLOCK waypoints."""
    blocks = list(trace.csv_blocks())
    assert all(isinstance(block, (bytes, bytearray)) for block in blocks)
    assert len(blocks) == 1 + -(-len(trace) // motion.CSV_BLOCK)
    data = b"".join(blocks)
    assert data == trace.to_csv().encode("ascii")
    return data


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1000.0, -1000.0, 1e300])
def test_trace_csv_past_the_digit_tables_takes_the_percent_loop(monkeypatch, value):
    # two blocks, so the `%` loop streams too
    monkeypatch.setattr(motion, "CSV_BLOCK", 2)
    angles = np.radians(
        [[1.0, -2.0, 3.5, 0.0, -0.0, 6.0], [0.5, value, -1e-7, 7e-7, 179.9, -180.0]]
    )
    trace = JointTrace(angles, [1, 0, 1])
    assert streamed_csv(trace) == trace_csv_reference(trace.angles).encode()


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_trace_csv_across_blocks(monkeypatch, block):
    # 1,010 waypoints: the numbers cross 999/1000 within a block and at
    # the blocks' seams
    monkeypatch.setattr(motion, "CSV_BLOCK", block)
    rng = np.random.default_rng(5)
    table = rng.uniform(-math.pi, math.pi, (40, 6))
    table[3] = -0.0
    trace = JointTrace(table, rng.integers(0, 40, 1010))
    assert streamed_csv(trace) == trace_csv_reference(trace.angles).encode()


@pytest.mark.parametrize(
    "start, stop",
    [
        (0, 12), (0, 1), (5, 5), (990, 1010), (999, 1001), (999_990, 1_000_010),
        (123_456_780, 123_456_790),
    ],
)
def test_waypoint_digits_are_the_numbers(start, stop):
    digits = motion.waypoint_digits(start, stop)
    groups = -(-len(str(max(stop - 1, 0))) // 3)
    assert digits.dtype == np.uint8 and digits.shape == (stop - start, 3 * groups)
    # right-aligned: the NUL pads are on the left only
    assert [bytes(row).lstrip(b"\0") for row in digits] == [b"%d" % i for i in range(start, stop)]


def test_trace_csv_peak_memory_per_waypoint():
    # the text and its one copy at the decode, 2 x 71 B per waypoint here
    # (148 measured); built by `%` and str.join it peaked at 262 B
    rng = np.random.default_rng(3)
    table = rng.uniform(-math.pi, math.pi, (30_000, 6))
    # a near tie is rounded by `%.6f` alone, not the whole trace
    table[0, 0] = np.radians(0.0078125)
    p = np.degrees(table[0, 0]) * 1e6
    assert abs(abs(p - np.rint(p)) - 0.5) < motion.TIE_BAND
    trace = JointTrace(table, rng.permutation(np.repeat(np.arange(30_000), 2)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        csv = trace.to_csv()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(trace) == 60_000 and len(csv) > 70 * len(trace)
    assert peak / len(trace) < 160.0


def test_trace_csv_streams_into_its_file_below_a_multiple_of_the_table(tmp_path):
    # 2.22 x table.nbytes measured (3.19 MB for a 1.44 MB table): the
    # formatted rows, 72 B per 48 B table row, and one block at a time.
    # Joining the text before the write measured 6.30 x.
    rng = np.random.default_rng(3)
    table = rng.uniform(-math.pi, math.pi, (30_000, 6))
    trace = JointTrace(table, rng.permutation(np.repeat(np.arange(30_000), 2)))
    target = tmp_path / "trace.csv"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_atomic(target, trace.csv_blocks())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert target.stat().st_size > 70 * len(trace) == 70 * 60_000
    assert peak < 2.5 * table.nbytes


@st.composite
def legs(draw):
    """(start, end): general legs, and legs along one or two axes whose
    other differences are +-0.0, moving by tiny to huge amounts."""
    start = draw(st.tuples(*[st.floats(-1000.0, 1000.0)] * 3))
    if draw(st.booleans()):
        return start, draw(st.tuples(*[st.floats(-1000.0, 1000.0)] * 3))
    moving = draw(st.sets(st.integers(0, 2), min_size=1, max_size=2))
    end = list(start)
    for j in range(3):
        if j in moving:
            end[j] += draw(
                st.floats(-1e-6, 1e-6)
                | st.floats(-2000.0, 2000.0)
                | st.sampled_from([1e100, -1e155, 1e200, -1.7e308])
            )
        elif start[j] == 0.0:
            end[j] = draw(st.sampled_from([0.0, -0.0]))
    return start, tuple(end)


@settings(max_examples=300, deadline=None)
@given(leg=legs())
def test_waypoints_leg_length_is_the_vector_norm(leg):
    # the leg's length decides its interval count: bit for bit the
    # length np.linalg.norm gives
    start, end = np.array(leg[0]), np.array(leg[1])
    d = end - start
    with np.errstate(over="ignore"):  # a huge two-axis leg's square
        length = float(np.linalg.norm(d))
        assert np.float64(motion.leg_length(*d.tolist())).tobytes() == np.float64(length).tobytes()
    if not length < 1e4:  # too many waypoints to list
        return
    pts = np.array(line_waypoints(start, end))
    if length < 1e-12:
        assert pts.tobytes() == start[None, :].tobytes()
        return
    intervals = max(1, math.ceil(length / motion.STEP - 1e-9))
    t = np.arange(intervals + 1) / intervals
    assert pts.tobytes() == (start + t[:, None] * d).tobytes()
