import math

import numpy as np
import pytest

from armscan import motion
from armscan.kinematics import (
    TOOL_DOWN_ROTATION,
    JointAngles,
    JointLimitError,
    UnreachableError,
    check_limits,
    forward_kinematics,
    inverse_kinematics,
)
from armscan.meshio import TriangleMesh
from armscan.motion import JointTrace, line_waypoints, plan_line, probe_cycle
from armscan.scene import CONTACT_MESH, CONTACT_TABLE, CONTACT_UNREACHABLE, NoiseModel, TargetScene


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


# ------------------------------------------------------------------ path


def test_waypoints_count_100mm_by_10mm(monkeypatch):
    monkeypatch.setattr(motion, "STEP", 10.0)
    pts = line_waypoints([0, 0, 0], [100, 0, 0])
    assert len(pts) == 11
    assert np.allclose(np.diff(pts[:, 0]), 10.0)


def test_waypoints_degenerate_segment(monkeypatch):
    monkeypatch.setattr(motion, "STEP", 10.0)
    pts = line_waypoints([5, 5, 5], [5, 5, 5])
    assert pts.shape == (1, 3)
    assert np.allclose(pts[0], [5, 5, 5])


def test_waypoints_endpoints_exact_and_collinear(monkeypatch):
    monkeypatch.setattr(motion, "STEP", 7.0)
    start, end = np.array([230.0, -40.0, 60.0]), np.array([310.0, 55.0, 60.0])
    pts = line_waypoints(start, end)
    assert np.allclose(pts[0], start, atol=1e-12)
    assert np.allclose(pts[-1], end, atol=1e-12)
    seg = end - start
    for p in pts:
        cross = np.cross(seg, p - start)
        assert np.linalg.norm(cross) / np.linalg.norm(seg) < 1e-9
    gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert gaps.max() <= 7.0 + 1e-12
    assert np.ptp(gaps) < 1e-9


def test_waypoints_exact_multiple_no_phantom_interval(monkeypatch):
    monkeypatch.setattr(motion, "STEP", 0.1)
    pts = line_waypoints([0, 0, 0], [0.3, 0, 0])
    assert len(pts) == 4


# ------------------------------------------------------------------ planning


def test_plan_line_trace_positions_on_segment(geom, monkeypatch):
    monkeypatch.setattr(motion, "STEP", 8.0)
    start, end = [240, -30, 40], [320, 60, 40]
    rows = plan_line(start, end, geom)
    pts = line_waypoints(start, end)
    assert rows.shape == (len(pts), 6)
    for angles, target in zip(rows, pts):
        back = forward_kinematics(angles, geom)
        assert np.abs(back.position - target).max() < 1e-9
        assert np.allclose(back.rotation, TOOL_DOWN_ROTATION, atol=1e-9)


def test_plan_line_limits_respected(geom):
    for angles in plan_line([250, 0, 30], [300, 0, 30], geom):
        check_limits(JointAngles(*angles))


def test_plan_line_unreachable_names_waypoint(geom, monkeypatch):
    # end far outside the workspace: failure happens mid-path
    monkeypatch.setattr(motion, "STEP", 50.0)
    with pytest.raises(UnreachableError) as err:
        plan_line([300, 0, 50], [900, 0, 50], geom)
    assert str(err.value) == (
        "waypoint 6 at (600.000, 0.000, 50.000): elbow triangle (chord "
        "537.331 mm, annulus [83.000, 527.000]): cosine argument -1.081199 "
        "outside [-1, 1]"
    )


def test_plan_line_joint_limit_names_waypoint(geom, monkeypatch):
    # straight over the base: theta2 runs past its stop near the axis
    monkeypatch.setattr(motion, "STEP", 25.0)
    with pytest.raises(JointLimitError) as err:
        plan_line([250, 0, 0], [0, 0, 0], geom)
    assert str(err.value) == (
        "waypoint 7 at (75.000, 0.000, 0.000): joint 2 angle -145.722 deg "
        "outside [-135.000, 135.000] deg"
    )


# ------------------------------------------------------------------ cycle


def test_probe_cycle_hits_plate(geom):
    scene = plate_scene(25.0)
    (kind, z_true, _), rows = probe_cycle(
        300.0, 0.0, safe_z=80.0, geom=geom, scene=scene,
        noise=NoiseModel(), contact_index=0,
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
    _, rows = probe_cycle(
        280.0, 20.0, safe_z=70.0, geom=geom, scene=scene,
        noise=NoiseModel(), contact_index=0, from_xy=(260.0, -10.0),
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
    _, rows = probe_cycle(
        300.0, 30.0, safe_z=75.0, geom=geom, scene=scene,
        noise=NoiseModel(), contact_index=0, from_xy=(250.0, -40.0),
    )
    pts = np.array([forward_kinematics(a, geom).position for a in rows])
    over = np.isclose(pts[:, 2], 75.0, atol=1e-9)
    # the xy travel happens only while at the safe height
    moving = np.linalg.norm(np.diff(pts[:, :2], axis=0), axis=1) > 1e-9
    assert all(over[i] and over[i + 1] for i in np.nonzero(moving)[0])


def test_probe_cycle_miss_table_mode(geom):
    scene = plate_scene(25.0, floor_mode="table")
    (kind, z_true, _), rows = probe_cycle(
        420.0, 0.0, safe_z=60.0, geom=geom, scene=scene,
        noise=NoiseModel(), contact_index=3,
    )
    assert kind == CONTACT_TABLE
    assert z_true == 0.0
    z = np.array([forward_kinematics(a, geom).position[2] for a in rows])
    assert z.min() == pytest.approx(0.0, abs=1e-9)


def test_probe_cycle_unreachable_marked(geom):
    scene = plate_scene(25.0, size=600.0, x0=0.0, y0=-300.0)
    (kind, z_true, z_measured), rows = probe_cycle(
        590.0, 0.0, safe_z=60.0, geom=geom, scene=scene,
        noise=NoiseModel(), contact_index=0,
    )
    assert kind == CONTACT_UNREACHABLE
    assert math.isnan(z_true) and math.isnan(z_measured)


def test_probe_cycle_noise_applied(geom):
    scene = plate_scene(25.0)
    noise = NoiseModel(sigma_contact=0.03, drift_per_contact=0.001, seed=5)
    (_, z_true, z_measured), _ = probe_cycle(
        290.0, 10.0, safe_z=70.0, geom=geom, scene=scene,
        noise=noise, contact_index=12,
    )
    assert z_measured == z_true + noise.error_at(12)


def test_probe_cycle_retract_replays_descent(geom, monkeypatch):
    # two IK solves per cycle (lateral, descent); the retract is the
    # descent's rows reversed bit for bit, less the contact row
    solved = []

    def counting_ik(pose, g):
        angles, trace = inverse_kinematics(pose, g)
        solved.append(angles)
        return angles, trace

    monkeypatch.setattr(motion, "inverse_kinematics", counting_ik)
    scene = plate_scene(25.0)
    noise = NoiseModel(sigma_contact=0.03, drift_per_contact=0.001, seed=11)
    calls, not_reversed = [], []
    for index, (x, y) in enumerate(
        (x, y) for x in np.linspace(220.0, 380.0, 11) for y in np.linspace(-60.0, 60.0, 7)
    ):
        solved.clear()
        (kind, _, _), rows = probe_cycle(
            x, y, safe_z=73.0, geom=geom, scene=scene, noise=noise,
            contact_index=index, from_xy=(x - 7.0, y - 5.0),
        )
        assert kind == CONTACT_MESH
        calls.append(len(solved))
        lateral, descend = solved[:2]
        bottom = len(lateral) - 1 + len(descend)
        assert np.array_equal(rows[len(lateral) - 1 : bottom], descend)
        if not np.array_equal(rows[bottom:], descend[-2::-1]):
            not_reversed.append((x, y))
    assert calls == [2] * 77
    assert not_reversed == []


def test_probe_cycle_deterministic(geom):
    scene = plate_scene(25.0)
    noise = NoiseModel(sigma_contact=0.05, seed=99)
    kw = dict(safe_z=70.0, geom=geom, scene=scene, noise=noise, contact_index=7,
              from_xy=(250.0, 0.0))
    c1, t1 = probe_cycle(300.0, 20.0, **kw)
    c2, t2 = probe_cycle(300.0, 20.0, **kw)
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
