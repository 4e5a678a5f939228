"""Acceptance suite: one test per release criterion.

Each test name carries its criterion number, so a verbose pytest run
reads as a per-criterion pass/fail checklist.  Tolerances are the
contractual ones, not implementation-derived.  Run with -s to see the
measured values behind each verdict.
"""

import io
import time

import numpy as np
import pytest

from armscan.cli import main
from armscan.kinematics import RobotGeometry, forward_kinematics, inverse_kinematics
from armscan.meshio import (
    PointCloud,
    TriangleMesh,
    read_stl,
    save_stl,
    write_stl_binary,
)
from armscan.metrics import (
    chamfer_distance,
    probe_directions,
    sample_mesh_surface,
)
from armscan.metrics import test_a as run_accuracy_test
from armscan.metrics import test_b as run_repeatability_test
from armscan.objects import make_plate, make_wing
from armscan.scanner import PointGrid, ScanGrid, run_scan, triangulate
from armscan.scene import NoiseModel, TargetScene, raycast_down

from conftest import random_joint_tuples
from oracles import chamfer_brute, probe_order, raycast_brute, sphere_probe_monte_carlo

GEOM = RobotGeometry()

# Reference-scale scan: 20 rows x 25 columns at 6 mm over a flat plate.
PLATE_GRID = ScanGrid(230.0, -75.0, 20, 25, 6.0, 6.0, safe_z=60.0)
PLATE_Z = 25.0

# Full-footprint wing grids, 6 mm and half pitch (span 150 along x,
# chord 140 along y, so 26x24 covers it at 6 mm).
WING_GRID_6 = ScanGrid(220.0, -70.0, 26, 24, 6.0, 6.0, safe_z=60.0)
WING_GRID_3 = ScanGrid(220.0, -70.0, 51, 47, 3.0, 3.0, safe_z=60.0)

# Hardware-measured reference values: repeatability extremes across
# the three reach distances, and the average diameter deviation of
# the nine-point sphere test.
REFERENCE_REPEATABILITY_LOW = 0.0387
REFERENCE_REPEATABILITY_HIGH = 0.0712
REFERENCE_AVERAGE_DD = 0.03618

# Expected chamfer components for a grid-sampled smooth surface vs a
# dense uniform sample cloud: a uniform point in a square cell of side
# h sits (sqrt(2) + asinh(1)) / 6 * h ~ 0.3826 h from its nearest
# corner on average, and the nearest of n uniform samples on area A is
# 0.5 sqrt(A/n) away on average (2D Poisson nearest neighbor).
NEAREST_CORNER_FACTOR = (np.sqrt(2.0) + np.arcsinh(1.0)) / 6.0
DISCRETIZATION_BAND = 0.30  # relative slack for slope and edge effects


@pytest.fixture(scope="module")
def plate_scan():
    plate = make_plate(200.0, -100.0, 200.0, 200.0, PLATE_Z)
    scene = TargetScene(plate)
    return run_scan(PLATE_GRID, GEOM, scene, NoiseModel())


def test_criterion_1_ik_round_trip_10k(rng):
    tuples = random_joint_tuples(10_000, rng, margin=0.0)
    worst_pos = 0.0
    worst_rot = 0.0
    started = time.perf_counter()
    for row in tuples:
        pose = forward_kinematics(row, GEOM)
        solution = inverse_kinematics(pose, GEOM)
        assert solution.theta3 >= -1e-12  # elbow-up branch, always
        back = forward_kinematics(solution, GEOM)
        worst_pos = max(worst_pos, np.linalg.norm(back.position - pose.position))
        worst_rot = max(worst_rot, np.abs(back.rotation - pose.rotation).max())
    elapsed = time.perf_counter() - started
    assert worst_pos < 1e-9
    assert worst_rot < 1e-9
    assert elapsed < 2.0
    print(
        f"\ncriterion 1: 10000 round trips, worst position {worst_pos:.3e} mm, "
        f"worst rotation entry {worst_rot:.3e}, {elapsed:.2f} s"
    )


def test_criterion_2_plane_scan_fidelity(plate_scan, rng):
    heights = plate_scan.points.z_measured.T.ravel()  # probe order
    assert heights.shape == (500,)
    assert np.abs(heights - PLATE_Z).max() < 1e-9
    assert len(plate_scan.mesh) == 912

    # The chamfer against any finite sample cloud has a floor set by
    # the sampling geometry alone; a faithful scan must not exceed the
    # floor of an exact height field by more than the 0.05 mm budget.
    footprint_x = (PLATE_GRID.x0, PLATE_GRID.x0 + 19 * 6.0)
    footprint_y = (PLATE_GRID.y0, PLATE_GRID.y0 + 24 * 6.0)
    dense = np.column_stack(
        [
            rng.uniform(*footprint_x, 10_000),
            rng.uniform(*footprint_y, 10_000),
            np.full(10_000, PLATE_Z),
        ]
    )
    exact = np.array(
        [
            (
                PLATE_GRID.x0 + i * PLATE_GRID.row_spacing,
                PLATE_GRID.y0 + k * PLATE_GRID.col_spacing,
                PLATE_Z,
            )
            for i, k in probe_order(PLATE_GRID)
        ]
    )
    measured = plate_scan.points.measured_cloud().points
    cd = chamfer_brute(measured, dense)
    floor = chamfer_brute(exact, dense)
    excess = cd - floor
    assert excess < 0.05
    print(
        f"\ncriterion 2: 500/500 heights within 1e-9, 912 triangles, "
        f"CD {cd:.4f} mm vs sampling floor {floor:.4f} mm "
        f"(excess {excess:.2e} mm < 0.05)"
    )


def test_criterion_3_triangle_count_law(plate_scan, rng):
    for _ in range(20):
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        grid = ScanGrid(0.0, 0.0, rows, cols, 4.0, 5.0, safe_z=50.0)
        z = np.ones((rows, cols))
        mesh = triangulate(PointGrid(grid, np.full((rows, cols), "mesh"), z, z))
        assert len(mesh) == 2 * (rows - 1) * (cols - 1)

    assert plate_scan.points.grid.point_count == 500
    assert len(plate_scan.mesh) == 912
    print("\ncriterion 3: 20 random grids obey 2(r-1)(c-1); 20x25 -> 500/912")


def test_criterion_4_wing_chamfer_and_noise_calibration():
    wing = make_wing(220.0, -70.0)
    scene = TargetScene(wing)
    tris = wing.vertices
    area = float(
        np.linalg.norm(
            np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]), axis=1
        ).sum()
        / 2.0
    )
    dense = sample_mesh_surface(wing, count=20_000, seed=99)
    forward_term = 0.5 * np.sqrt(area / 20_000)

    def scanned_cd(grid, noise):
        result = run_scan(grid, GEOM, scene, noise)
        return chamfer_distance(result.points.measured_cloud(), dense).cd

    # (a) zero-noise CD sits in the discretization band for both grid
    # pitches, and halving the pitch lowers it.
    cd6 = scanned_cd(WING_GRID_6, NoiseModel())
    cd3 = scanned_cd(WING_GRID_3, NoiseModel())
    predicted6 = NEAREST_CORNER_FACTOR * 6.0 + forward_term
    predicted3 = NEAREST_CORNER_FACTOR * 3.0 + forward_term
    assert abs(cd6 - predicted6) < DISCRETIZATION_BAND * predicted6
    assert abs(cd3 - predicted3) < DISCRETIZATION_BAND * predicted3
    assert cd3 < cd6

    # (b) calibrate the contact noise against the published
    # repeatability range, then check the noisy wing scan moves the CD
    # by less than 3 sigma.
    band_low = 0.8 * REFERENCE_REPEATABILITY_LOW
    band_high = 1.2 * REFERENCE_REPEATABILITY_HIGH
    per_unit_sigma = np.mean(
        [
            report.repeatability
            for seed in range(20)
            for report in run_repeatability_test(
                GEOM, NoiseModel(sigma_contact=1.0, seed=seed), repeats=30
            )
        ]
    )
    sigma_star = float(np.sqrt(band_low * band_high) / per_unit_sigma)
    calibrated = run_repeatability_test(
        GEOM, NoiseModel(sigma_contact=sigma_star, seed=0), repeats=30
    )
    for report in calibrated:
        assert band_low <= report.repeatability <= band_high

    cd6_noisy = scanned_cd(WING_GRID_6, NoiseModel(sigma_contact=sigma_star, seed=5))
    assert cd6_noisy - cd6 < 3.0 * sigma_star
    print(
        f"\ncriterion 4: CD6 {cd6:.4f} (expect {predicted6:.4f}), "
        f"CD3 {cd3:.4f} (expect {predicted3:.4f}); sigma* {sigma_star:.4f} mm, "
        f"test B {[round(r.repeatability, 4) for r in calibrated]} in "
        f"[{band_low:.4f}, {band_high:.4f}], noisy CD +{cd6_noisy - cd6:.5f} "
        f"< {3 * sigma_star:.4f}"
    )


def test_criterion_5_accuracy_test_statistics():
    clean = run_accuracy_test((300.0, 0.0, 50.0), 25.0, GEOM, NoiseModel())
    assert clean.average_dd < 1e-9

    trial_means = [
        run_accuracy_test(
            (300.0, 0.0, 50.0), 25.0, GEOM, NoiseModel(sigma_contact=0.02, seed=s)
        ).average_dd
        for s in range(1000)
    ]
    simulated = float(np.mean(trial_means))
    oracle = sphere_probe_monte_carlo(
        probe_directions(), 12.5, 0.02, 1_000_000, seed=12345
    )
    assert abs(simulated - oracle) < 0.15 * oracle
    # Published average is the same order of magnitude, nothing more.
    assert 0.1 * REFERENCE_AVERAGE_DD < simulated < 10.0 * REFERENCE_AVERAGE_DD
    print(
        f"\ncriterion 5: zero-noise avg dd {clean.average_dd:.2e}; "
        f"1000-trial mean {simulated:.6f} vs 1e6-trial oracle {oracle:.6f} "
        f"({100 * (simulated / oracle - 1):+.2f}%), reference {REFERENCE_AVERAGE_DD}"
    )


def test_criterion_6_chamfer_oracle_equivalence(rng):
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 301))
        n = int(rng.integers(1, 301))
        p = rng.uniform(-100, 100, size=(m, 3))
        q = rng.uniform(-100, 100, size=(n, 3))
        ours = chamfer_distance(PointCloud(p), PointCloud(q))
        flipped = chamfer_distance(PointCloud(q), PointCloud(p))
        worst = max(worst, abs(ours.cd - chamfer_brute(p, q)))
        assert worst < 1e-12
        assert ours.cd == flipped.cd
        assert chamfer_distance(PointCloud(p), PointCloud(p)).cd == 0.0
    print(f"\ncriterion 6: 100 pairs, worst |indexed - brute| {worst:.2e}")


def test_criterion_7_stl_bit_exactness(rng, tmp_path):
    for case in range(50):
        count = int(rng.integers(1, 61))
        tris = []
        while len(tris) < count:
            v = rng.uniform(-100, 100, size=(3, 3)).astype(np.float32).astype(float)
            try:
                TriangleMesh.from_vertices(v)
            except ValueError:
                continue
            tris.append(v)
        mesh = TriangleMesh.from_vertices(tris)
        first = write_stl_binary(mesh)
        assert len(first) == 84 + 50 * count
        second = write_stl_binary(read_stl(first))
        assert len(second) == 84 + 50 * count
        assert first == second
    print("\ncriterion 7: 50 meshes, write-read-write byte identical")


def test_criterion_8_raycast_oracle_equivalence(rng):
    checked = 0
    for mesh_size in (10, 50, 120, 250, 500):
        tris = []
        while len(tris) < mesh_size:
            v = rng.uniform(0.0, 60.0, size=(3, 3))
            v[:, 2] = rng.uniform(0.5, 30.0, size=3)
            try:
                TriangleMesh.from_vertices(v)
            except ValueError:
                continue
            tris.append(v)
        scene = TargetScene(TriangleMesh.from_vertices(tris))
        raw = np.array(tris).tolist()
        for _ in range(2000):
            x = float(rng.uniform(-5.0, 65.0))
            y = float(rng.uniform(-5.0, 65.0))
            ours = raycast_down(x, y, scene)
            brute = raycast_brute(x, y, raw)
            if brute is None:
                assert ours is None
            else:
                assert ours is not None
                assert abs(ours - brute) < 1e-9
            checked += 1
    assert checked == 10_000
    print("\ncriterion 8: 10000 rays agree with the all-triangles scan")


def test_criterion_9_job_rerun_determinism(tmp_path):
    save_stl(make_wing(220.0, -70.0), tmp_path / "wing.stl")
    (tmp_path / "job.ini").write_text(
        "[scene]\nmesh = wing.stl\ntable_z = 0\nfloor_mode = table\n"
        "[grid]\nx0 = 220\ny0 = -70\nrows = 26\ncols = 24\n"
        "row_spacing = 6\ncol_spacing = 6\nsafe_z = 60\n"
        "[noise]\nsigma_contact = 0.02\ndrift_per_contact = 0.0001\nseed = 7\n"
        "[output]\nstl = out/wing_scan.stl\nxyz = out/wing_scan.xyz\n"
        "trace = out/trace.csv\nreport = out/report.txt\nflip_normals = false\n"
    )
    names = ["out/wing_scan.stl", "out/wing_scan.xyz", "out/trace.csv", "out/report.txt"]

    assert main(["scan", str(tmp_path / "job.ini")], out=io.StringIO()) == 0
    first = [(tmp_path / name).read_bytes() for name in names]
    for name in names:
        (tmp_path / name).unlink()
    assert main(["scan", str(tmp_path / "job.ini")], out=io.StringIO()) == 0
    second = [(tmp_path / name).read_bytes() for name in names]
    assert first == second
    print("\ncriterion 9: rerun produced byte-identical STL, XYZ, trace, report")
