"""Chamfer distance, surface sampling, sphere fitting, and the two
probe performance tests, checked against the brute-force oracles."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armscan.kinematics import ConfigError, UnreachableError
from armscan.meshio import PointCloud, TriangleMesh
from armscan.metrics import (
    BLOCK_POINTS,
    GUIDE_STEPS,
    MAX_SAMPLE_POINTS,
    TEST_A_DIRECTIONS,
    AccuracyReport,
    _nearest_distances,
    chamfer_distance,
    fit_sphere,
    probe_directions,
    repeatability_table,
    sample_mesh_surface,
)
from armscan.metrics import test_a as run_accuracy_test
from armscan.metrics import test_b as run_repeatability_test
from armscan.objects import make_plate, make_wing
from armscan.scene import NoiseModel

from oracles import (
    chamfer_brute,
    chamfer_input_order,
    kasa_normal_equations,
    sample_mesh_surface_reference,
    sphere_grid_search,
)


def sphere_points(center, radius, n, rng, hemisphere=False):
    v = rng.normal(size=(n, 3))
    if hemisphere:
        v[:, 2] = np.abs(v[:, 2])
    v /= np.linalg.norm(v, axis=1)[:, None]
    return center + radius * v


# ----------------------------------------------------------------- chamfer


def test_chamfer_identical_clouds_is_zero(rng):
    pts = PointCloud(rng.uniform(-50, 50, size=(40, 3)))
    report = chamfer_distance(pts, pts)
    assert report.cd == 0.0
    assert report.forward_mean == 0.0 and report.backward_mean == 0.0
    assert report.m == 40 and report.n == 40


def test_chamfer_two_points_sums_both_directions():
    a = PointCloud(np.array([[0.0, 0.0, 0.0]]))
    b = PointCloud(np.array([[3.0, 4.0, 0.0]]))
    report = chamfer_distance(a, b)
    assert report.forward_mean == pytest.approx(5.0, abs=1e-15)
    assert report.backward_mean == pytest.approx(5.0, abs=1e-15)
    assert report.cd == pytest.approx(10.0, abs=1e-15)


def test_chamfer_hand_worked_asymmetric_example():
    # Forward: 0 -> 0 (d 1), 2 -> 3 (d 1): mean 1.  Backward: 0 -> 0
    # (d 1), 3 -> 2 (d 1), 10 -> 2 (d 8): mean 10/3.
    a = PointCloud(np.array([[0.0, 0, 0], [2.0, 0, 0]]))
    b = PointCloud(np.array([[0.0, 1, 0], [3.0, 0, 0], [10.0, 0, 0]]))
    report = chamfer_distance(a, b)
    assert report.forward_mean == pytest.approx(1.0, abs=1e-12)
    assert report.backward_mean == pytest.approx(10.0 / 3.0, abs=1e-12)
    assert report.cd == report.forward_mean + report.backward_mean


def test_chamfer_matches_brute_force(rng):
    for m, n in [(1, 1), (5, 9), (60, 40), (200, 123)]:
        p = rng.uniform(-30, 30, size=(m, 3))
        q = rng.uniform(-30, 30, size=(n, 3))
        got = chamfer_distance(PointCloud(p), PointCloud(q))
        assert got.cd == pytest.approx(chamfer_brute(p, q), abs=1e-12)


def test_chamfer_symmetry(rng):
    p = PointCloud(rng.uniform(0, 10, size=(25, 3)))
    q = PointCloud(rng.uniform(0, 10, size=(35, 3)))
    ab = chamfer_distance(p, q)
    ba = chamfer_distance(q, p)
    assert ab.cd == pytest.approx(ba.cd, abs=1e-15)
    assert ab.forward_mean == pytest.approx(ba.backward_mean, abs=1e-15)


def test_chamfer_rejects_empty_cloud():
    pts = PointCloud(np.array([[1.0, 2.0, 3.0]]))
    empty = PointCloud(np.empty((0, 3)))
    with pytest.raises(ValueError, match="non-empty"):
        chamfer_distance(pts, empty)
    with pytest.raises(ValueError, match="non-empty"):
        chamfer_distance(empty, pts)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=25),
    n=st.integers(min_value=1, max_value=25),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_chamfer_agrees_with_brute_force_everywhere(m, n, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(-20, 20, size=(m, 3))
    q = rng.uniform(-20, 20, size=(n, 3))
    report = chamfer_distance(PointCloud(p), PointCloud(q))
    assert report.cd >= 0.0
    assert report.cd == pytest.approx(chamfer_brute(p, q), abs=1e-12)


def uniform(m, n, offset=0.0):
    def clouds(rng):
        p = rng.uniform(-30, 30, size=(m, 3))
        return p, rng.uniform(-30, 30, size=(n, 3)) + offset

    return clouds


def integer_grid(m, n):
    # 27 distinct points in all: duplicates on both sides, so most
    # points have several equally near neighbors
    def clouds(rng):
        return (
            rng.integers(0, 3, size=(m, 3)).astype(float),
            rng.integers(0, 3, size=(n, 3)).astype(float),
        )

    return clouds


@pytest.mark.parametrize(
    "clouds",
    [
        uniform(1, 1),
        uniform(15, 15),
        uniform(16, 16),
        uniform(17, 17),
        uniform(10_000, 10_000),
        uniform(1, 17),
        uniform(17, 10_000),
        uniform(10_000, 16),
        integer_grid(40, 25),
        integer_grid(10_000, 9_000),
        uniform(300, 2_000, offset=1e4),
        # both threads with several blocks, the worker's last one short
        uniform(3 * BLOCK_POINTS + 1, 2 * BLOCK_POINTS - 1),
        uniform(BLOCK_POINTS + 1, 5),
    ],
    ids=[
        "1x1", "15x15", "16x16", "17x17", "10000x10000", "1x17", "17x10000",
        "10000x16", "ties-40x25", "ties-10000x9000", "far-300x2000",
        "4-blocks-x-2-blocks", "2-blocks-x-5",
    ],
)
def test_chamfer_equals_input_order_kd_query(clouds):
    # == on purpose: the leaf-order query must change the speed only
    p, q = clouds(np.random.default_rng(11))
    report = chamfer_distance(PointCloud(p), PointCloud(q))
    got = (report.cd, report.forward_mean, report.backward_mean)
    assert got == chamfer_input_order(p, q)


class BlockError(Exception):
    pass


class FailingTree:
    # a stand-in tree whose query fails on the second block, which the
    # worker thread owns; the first block is answered
    def query(self, points):
        if points[0, 0] >= BLOCK_POINTS:
            raise BlockError("second block")
        return np.zeros(len(points)), np.zeros(len(points), dtype=np.intp)


def test_nearest_distances_raises_the_workers_error():
    points = np.repeat(np.arange(BLOCK_POINTS + 1.0)[:, None], 3, axis=1)
    threads = threading.active_count()
    with pytest.raises(BlockError, match="second block"):
        _nearest_distances(FailingTree(), points, np.arange(len(points)))
    assert threading.active_count() == threads


@pytest.mark.parametrize(
    "m, n, threads",
    [(1, 1, 0), (100, 100, 0), (BLOCK_POINTS, 17, 0), (BLOCK_POINTS, BLOCK_POINTS, 0),
     (BLOCK_POINTS + 1, 5, 1)],
)
def test_chamfer_starts_a_worker_only_for_a_second_block(m, n, threads, monkeypatch):
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountedThread)
    rng = np.random.default_rng(3)
    p, q = rng.uniform(-50, 50, (m, 3)), rng.uniform(-50, 50, (n, 3))
    report = chamfer_distance(PointCloud(p), PointCloud(q))
    assert (report.cd, report.forward_mean, report.backward_mean) == chamfer_input_order(p, q)
    assert len(started) == threads


def test_chamfer_is_exact_under_concurrent_callers():
    # three callers, each with its query worker, on switches every 10 us:
    # every report still equals the input-order query's
    p, q = uniform(3 * BLOCK_POINTS + 1, 2 * BLOCK_POINTS - 1)(np.random.default_rng(5))
    reports = []

    def call():
        report = chamfer_distance(PointCloud(p), PointCloud(q))
        reports.append((report.cd, report.forward_mean, report.backward_mean))

    callers = [threading.Thread(target=call) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert reports == [chamfer_input_order(p, q)] * 3


# ---------------------------------------------------------------- sampling


def test_sample_count_and_bounds():
    mesh = make_plate(10.0, -5.0, 40.0, 20.0, 3.0)
    cloud = sample_mesh_surface(mesh, count=500, seed=1)
    assert len(cloud) == 500
    pts = cloud.points
    assert np.all(pts[:, 2] == 3.0)
    assert pts[:, 0].min() >= 10.0 and pts[:, 0].max() <= 50.0
    assert pts[:, 1].min() >= -5.0 and pts[:, 1].max() <= 15.0


def test_sample_is_seeded():
    mesh = make_plate(0.0, 0.0, 10.0, 10.0, 0.0)
    a = sample_mesh_surface(mesh, count=64, seed=9).points
    b = sample_mesh_surface(mesh, count=64, seed=9).points
    c = sample_mesh_surface(mesh, count=64, seed=10).points
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_weighting_follows_area():
    # A 10x10 patch next to a 1x1 patch: the small one holds ~1% of
    # the area so roughly 1% of samples (binomial, 5 sigma slack).
    big = make_plate(0.0, 0.0, 10.0, 10.0, 0.0)
    small = make_plate(100.0, 0.0, 1.0, 1.0, 0.0)
    mesh = TriangleMesh(
        np.concatenate([big.vertices, small.vertices]),
        np.concatenate([big.normals, small.normals]),
    )
    pts = sample_mesh_surface(mesh, count=5000, seed=3).points
    frac = (pts[:, 0] > 50.0).mean()
    expected = 1.0 / 101.0
    slack = 5.0 * math.sqrt(expected * (1 - expected) / 5000)
    assert abs(frac - expected) < slack


def test_sample_rejects_empty_and_missing_size():
    with pytest.raises(ValueError, match="empty"):
        sample_mesh_surface(TriangleMesh(), count=10)
    with pytest.raises(TypeError, match="count"):
        sample_mesh_surface(make_plate(0, 0, 1, 1, 0))


def test_sample_rejects_a_count_over_the_ceiling():
    with pytest.raises(ValueError, match=f"at most {MAX_SAMPLE_POINTS}, got"):
        sample_mesh_surface(make_plate(0, 0, 1, 1, 0), count=MAX_SAMPLE_POINTS + 1)


@settings(max_examples=40, deadline=None)
@given(
    count=st.sampled_from(
        [
            1,
            BLOCK_POINTS - 1,
            BLOCK_POINTS,
            BLOCK_POINTS + 1,
            2 * BLOCK_POINTS + 1,
            3 * BLOCK_POINTS + 1,
            4 * BLOCK_POINTS,
        ]
    )
    | st.integers(min_value=1, max_value=40_000),
    seed=st.integers(min_value=0, max_value=2**64),
    soup_seed=st.integers(min_value=0, max_value=2**32 - 1),
    live=st.integers(min_value=1, max_value=300),
    zero_area=st.lists(st.sampled_from([None, "point", "edge"]), min_size=0, max_size=30),
)
def test_sample_equals_the_whole_array_build(count, seed, soup_seed, live, zero_area):
    # a shuffled random triangle soup: `live` facets with area, each
    # scaled so that the areas span eight orders of magnitude, and
    # facets that may collapse to a point or fold one vertex onto
    # another (zero area, so the choice never picks them)
    rng = np.random.default_rng(soup_seed)
    tris = rng.uniform(-50.0, 50.0, size=(live + len(zero_area), 3, 3))
    tris[:live] *= 10.0 ** rng.uniform(-3.0, 1.0, size=(live, 1, 1))
    for facet, kind in enumerate(zero_area, start=live):
        if kind == "point":
            tris[facet, 1:] = tris[facet, 0]
        elif kind == "edge":
            tris[facet, 2] = tris[facet, 1]
    tris = tris[rng.permutation(len(tris))]
    mesh = TriangleMesh(tris, np.zeros((len(tris), 3)))
    got = sample_mesh_surface(mesh, count, seed).points
    want = sample_mesh_surface_reference(mesh, count, seed).points
    assert got.shape == want.shape == (count, 3)
    assert got.tobytes() == want.tobytes()


def c_calls(call):
    # C functions called while `call` runs (a measure of work that does
    # not depend on the host's speed)
    calls = []

    def profile(frame, event, arg):
        if event == "c_call":
            calls.append(arg)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return len(calls)


def tiny_facets(count, x0):
    # `count` facets of 5e-9 mm^2 in a row from x0
    a = np.arange(count) * 1e-3 + x0
    tris = np.zeros((count, 3, 3))
    tris[:, 0, 0] = a
    tris[:, 1, 0] = a + 1e-4
    tris[:, 2, 0] = a
    tris[:, 2, 1] = 1e-4
    return tris


@pytest.mark.parametrize("side", ["before", "after", "both"])
def test_sample_crowded_guide_bucket(side):
    # 3,000 facets of 5e-9 mm^2 put 3,000 cdf entries, far more than
    # GUIDE_STEPS, in one guide bucket beside one 5,000 mm^2 facet; the
    # draws in that bucket must still pick exactly what rng.choice picks,
    # with no more work per block than in an uncrowded bucket
    big = np.array([[[0.0, 0.0, 0.0], [100.0, 0.0, 0.0], [0.0, 100.0, 0.0]]])
    tiny = tiny_facets(3000, 200.0)
    parts = {"before": [tiny, big], "after": [big, tiny], "both": [tiny, big, tiny]}
    tris = np.concatenate(parts[side])
    mesh = TriangleMesh(tris, np.zeros((len(tris), 3)))
    count = 12 * BLOCK_POINTS + 5
    assert 3000 > GUIDE_STEPS
    buckets = 1 << (len(tris) - 1).bit_length()
    facet_draws = np.random.default_rng(4).random(count)
    assert (facet_draws * buckets < 1.0).sum() >= 5  # some land in bucket 0

    got = sample_mesh_surface(mesh, count, seed=4).points
    want = sample_mesh_surface_reference(mesh, count, seed=4).points
    assert got.tobytes() == want.tobytes()

    plain = make_wing(220, -70)
    blocks = -(-count // BLOCK_POINTS)
    crowded = c_calls(lambda: sample_mesh_surface(mesh, count, seed=4))
    uncrowded = c_calls(lambda: sample_mesh_surface(plain, count, seed=4))
    assert crowded <= uncrowded + 2 * GUIDE_STEPS * blocks


def test_sample_peak_memory_per_point():
    # the result, 24 B per point, the facets' vertex and edge arrays,
    # the cdf, the guide table and one block's temporaries: 37.0 B per
    # point measured; the whole-array build read 100
    mesh = make_wing(220, -70)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cloud = sample_mesh_surface(mesh, 200_000, seed=7)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(cloud) == 200_000
    assert peak / len(cloud) <= 40.0


# ------------------------------------------------------------- sphere fit


def test_fit_sphere_exact_recovery(rng):
    center = np.array([300.0, -20.0, 50.0])
    pts = sphere_points(center, 12.5, 80, rng)
    fit = fit_sphere(PointCloud(pts))
    assert np.allclose(fit.center, center, atol=1e-9)
    assert fit.radius == pytest.approx(12.5, abs=1e-9)
    assert fit.per_point_dd.max() < 1e-9
    assert fit.mean_dd < 1e-9


def test_fit_sphere_exact_from_hemisphere_only(rng):
    # The accuracy test samples latitudes >= 0; the fit must not need
    # full coverage.
    center = np.array([10.0, 20.0, 30.0])
    pts = sphere_points(center, 25.0, 40, rng, hemisphere=True)
    fit = fit_sphere(PointCloud(pts))
    assert np.allclose(fit.center, center, atol=1e-8)
    assert fit.radius == pytest.approx(25.0, abs=1e-8)


def test_fit_sphere_matches_normal_equations_oracle(rng):
    center = np.array([5.0, -3.0, 8.0])
    pts = sphere_points(center, 20.0, 60, rng)
    pts += rng.normal(scale=0.05, size=pts.shape)
    fit = fit_sphere(PointCloud(pts))
    oracle_center, oracle_radius = kasa_normal_equations(pts)
    assert np.allclose(fit.center, oracle_center, atol=1e-9)
    assert fit.radius == pytest.approx(oracle_radius, abs=1e-9)
    dd = 2.0 * np.abs(np.linalg.norm(pts - oracle_center, axis=1) - oracle_radius)
    assert np.allclose(fit.per_point_dd, dd, atol=1e-12)


def test_fit_sphere_near_geometric_grid_search(rng):
    # With small noise the algebraic fit should land within a couple
    # of grid cells of the geometric brute-force optimum.
    center = np.array([1.0, 2.0, 3.0])
    pts = sphere_points(center, 25.0, 60, rng)
    pts += rng.normal(scale=0.005, size=pts.shape)
    fit = fit_sphere(PointCloud(pts))
    grid_center, grid_radius = sphere_grid_search(pts, center, 0.05, 21)
    assert np.linalg.norm(fit.center - grid_center) < 0.01
    assert abs(fit.radius - grid_radius) < 0.01


def test_fit_sphere_rejects_degenerate_input(rng):
    flat = rng.uniform(-10, 10, size=(30, 3))
    flat[:, 2] = 0.0
    with pytest.raises(ValueError, match="coplanar|singular"):
        fit_sphere(PointCloud(flat))
    with pytest.raises(ValueError, match="at least 4"):
        fit_sphere(PointCloud(flat[:3]))


@pytest.mark.parametrize("value", [math.nan, math.inf, 1e308])
def test_fit_sphere_rejects_a_coordinate_that_overflows(value):
    # LAPACK's least-squares solve never returns on a non-finite entry;
    # 1e308 is finite, but the system holds twice each coordinate
    pts = np.eye(4, 3) * 10.0
    pts[0, 0] = value
    with pytest.raises(ConfigError, match="^sphere fit overflows"):
        fit_sphere(PointCloud(pts))


# ----------------------------------------------------------------- test A


def test_probe_directions_are_unit_and_ordered():
    dirs = probe_directions()
    assert dirs.shape == (9, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    assert np.allclose(dirs[8], [0.0, 0.0, 1.0], atol=1e-12)
    lats = [lat for lat, _ in TEST_A_DIRECTIONS]
    assert lats == [0.0, 0.0, 0.0, 0.0, 45.0, 45.0, 45.0, 45.0, 90.0]


def test_accuracy_noise_free_probe_is_exact(geom):
    report = run_accuracy_test((300.0, 0.0, 50.0), 25.0, geom, NoiseModel())
    assert isinstance(report, AccuracyReport)
    assert len(report.rows) == 9
    assert max(dd for _, _, dd in report.rows) < 1e-9
    assert report.average_dd < 1e-9
    assert 2.0 * report.fit.radius == pytest.approx(25.0, abs=1e-9)
    assert np.allclose(report.fit.center, [300.0, 0.0, 50.0], atol=1e-9)


def test_accuracy_matches_direct_recomputation(geom):
    noise = NoiseModel(sigma_contact=0.01, seed=7)
    center = np.array([300.0, 0.0, 50.0])
    report = run_accuracy_test(center, 25.0, geom, noise)

    dirs = probe_directions()
    measured = np.array(
        [center + (12.5 + noise.error_at(i)) * dirs[i] for i in range(9)]
    )
    oracle_center, oracle_radius = kasa_normal_equations(measured)
    dd = 2.0 * np.abs(
        np.linalg.norm(measured - oracle_center, axis=1) - oracle_radius
    )
    got = np.array([row[2] for row in report.rows])
    assert np.allclose(got, dd, atol=1e-12)
    assert report.average_dd == pytest.approx(dd.mean(), abs=1e-12)
    assert np.allclose(report.fit.center, oracle_center, atol=1e-9)


def test_accuracy_is_deterministic(geom):
    noise = NoiseModel(sigma_contact=0.02, seed=41)
    a = run_accuracy_test((300.0, 0.0, 50.0), 25.0, geom, noise)
    b = run_accuracy_test((300.0, 0.0, 50.0), 25.0, geom, noise)
    assert a.rows == b.rows


def test_accuracy_rejects_bad_diameter(geom):
    with pytest.raises(ValueError, match=r"\[10, 50\]"):
        run_accuracy_test((300.0, 0.0, 50.0), 9.0, geom, NoiseModel())
    with pytest.raises(ValueError, match=r"\[10, 50\]"):
        run_accuracy_test((300.0, 0.0, 50.0), 51.0, geom, NoiseModel())


def test_accuracy_rejects_unreachable_placement(geom):
    with pytest.raises(UnreachableError, match="probe point"):
        run_accuracy_test((900.0, 0.0, 50.0), 25.0, geom, NoiseModel())


def test_accuracy_report_text(geom):
    report = run_accuracy_test((300.0, 0.0, 50.0), 25.0, geom, NoiseModel(0.01, seed=3))
    table = report.table()
    lines = table.strip().split("\n")
    assert len(lines) == 11  # header, 9 rows, average
    assert lines[0].startswith("Point")
    assert lines[-1].startswith("Average")
    kv = report.key_values()
    assert "nominal_diameter_mm = 25.000000" in kv
    assert "dd_9_mm = " in kv
    parsed = dict(
        line.split(" = ") for line in kv.strip().split("\n")
    )
    assert float(parsed["average_dd_mm"]) == pytest.approx(report.average_dd)


# ----------------------------------------------------------------- test B


def test_repeatability_noise_free_is_zero(geom):
    reports = run_repeatability_test(geom, NoiseModel())
    assert [r.distance_from_base for r in reports] == [120.0, 300.0, 500.0]
    assert all(r.repeatability == 0.0 for r in reports)
    assert all(r.repeats == 10 for r in reports)


def test_repeatability_matches_logged_points(geom):
    noise = NoiseModel(sigma_contact=0.02, seed=11)
    reports = run_repeatability_test(geom, noise, repeats=30)
    for which, report in enumerate(reports):
        zs = np.array([noise.error_at(which * 30 + j) for j in range(30)])
        assert np.array_equal(report.points[:, 2], zs)
        assert np.all(report.points[:, 0] == report.distance_from_base)
        assert np.all(report.points[:, 1] == 0.0)
        centroid = report.points.mean(axis=0)
        dev = np.linalg.norm(report.points - centroid, axis=1).max()
        assert report.repeatability == dev


def test_repeatability_groups_draw_distinct_errors(geom):
    reports = run_repeatability_test(geom, NoiseModel(sigma_contact=0.02, seed=5))
    values = [r.repeatability for r in reports]
    assert len(set(values)) == 3
    assert all(v > 0.0 for v in values)


def test_repeatability_is_deterministic(geom):
    noise = NoiseModel(sigma_contact=0.03, seed=8)
    a = run_repeatability_test(geom, noise)
    b = run_repeatability_test(geom, noise)
    assert all(x.repeatability == y.repeatability for x, y in zip(a, b))


def test_repeatability_rejects_unreachable_distance(geom):
    with pytest.raises(UnreachableError, match="700"):
        run_repeatability_test(geom, NoiseModel(), distances=(700.0,))


def test_repeatability_rejects_too_few_repeats(geom):
    with pytest.raises(ValueError, match="at least 2"):
        run_repeatability_test(geom, NoiseModel(), repeats=1)


def test_repeatability_table_text(geom):
    reports = run_repeatability_test(geom, NoiseModel(sigma_contact=0.02, seed=1))
    text = repeatability_table(reports)
    lines = text.strip().split("\n")
    assert len(lines) == 4
    assert "Point distance (mm)" in lines[0]
    assert all("+/- 0.0" in line for line in lines[1:])
