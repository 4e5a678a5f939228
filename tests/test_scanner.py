import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from armscan import motion, scanner
from armscan import scene as scene_module
from armscan.kinematics import ConfigError, RobotGeometry, UnreachableError, is_reachable
from armscan.meshio import read_stl, write_stl_binary
from armscan.motion import line_waypoints
from armscan.objects import make_plate, make_wing
from armscan.scanner import (
    PointGrid,
    ScanGrid,
    UnreachableGridError,
    run_scan,
    triangulate,
)
from armscan.scene import (
    CONTACT_MESH,
    CONTACT_NONE,
    CONTACT_TABLE,
    CONTACT_UNREACHABLE,
    NoiseModel,
    TargetScene,
    probe_contact,
    raycast_down,
)

from oracles import (
    line_waypoints_reference,
    plan_line_loop,
    probe_order,
    scan_reference,
    trace_csv_reference,
    triangulate_loop,
)


POINT_BITS = struct.Struct("3d").pack


def plate_scene(z=25.0, **kw):
    # big enough to cover every grid used here
    return TargetScene(make_plate(180.0, -120.0, 220.0, 240.0, z), **kw)


def small_grid(n_rows, n_cols, spacing=6.0):
    return ScanGrid(
        x0=240.0, y0=-30.0, n_rows=n_rows, n_cols=n_cols,
        row_spacing=spacing, col_spacing=spacing, safe_z=60.0,
    )


def point_by_point_precheck(grid, geom):
    """(1-based offenders, first reason) of `is_reachable` at the safe
    height over every grid point in probe order; no reason when none fails."""
    xs, ys = (a.tolist() for a in grid.axes())
    checks = [
        ((i + 1, k + 1), is_reachable((xs[i], ys[k], grid.safe_z), geom))
        for i, k in probe_order(grid)
    ]
    offenders = [ik for ik, (ok, _) in checks if not ok]
    return offenders, next((why for _, (ok, why) in checks if not ok), None)


# ------------------------------------------------------------------ grid


def test_grid_point_formula():
    xs, ys = ScanGrid(10.0, 20.0, 5, 4, 2.0, 3.0).axes()
    assert xs.tolist() == [10.0 + i * 2.0 for i in range(5)]
    assert ys.tolist() == [20.0 + k * 3.0 for k in range(4)]


def test_grid_validation():
    with pytest.raises(ValueError):
        ScanGrid(0, 0, 0, 5, 1.0, 1.0)
    with pytest.raises(ValueError):
        ScanGrid(0, 0, 5, 5, -1.0, 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["x0", "y0", "row_spacing", "col_spacing", "safe_z"])
def test_grid_rejects_non_finite_number(name, value):
    # a NaN safe height used to build, then fail the precheck as unreachable
    fields = dict(x0=240.0, y0=-30.0, n_rows=3, n_cols=3, row_spacing=6.0,
                  col_spacing=6.0, safe_z=60.0)
    fields[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
        ScanGrid(**fields)


@pytest.mark.parametrize(
    "fields, corner",
    [
        ((1e308, 0.0, 2, 1, 1e308, 1.0), r"\(2, 1\) is at \(inf, 0\) mm"),
        ((0.0, -1e308, 1, 3, 1.0, 1.5e308), r"\(1, 3\) is at \(0, inf\) mm"),
    ],
    ids=["rows", "cols"],
)
def test_grid_rejects_coordinates_that_overflow(fields, corner):
    # the lattice used to build with an inf coordinate and a numpy
    # RuntimeWarning, and its job failed later as an unreachable grid
    with pytest.raises(ConfigError, match=f"^grid coordinates overflow: the far corner {corner}$"):
        ScanGrid(*fields)
    # a far corner near the top of the float range still builds
    xs, _ = ScanGrid(8e307, 0.0, 2, 1, 8e307, 1.0).axes()
    assert xs.tolist() == [8e307, 1.6e308]


def test_grid_point_bound_checked_before_axes(monkeypatch):
    # 10^10 points must fail at once, before anything per point runs
    monkeypatch.setattr(ScanGrid, "axes", lambda self: pytest.fail("axes() ran"))
    with pytest.raises(
        ValueError,
        match=r"100000 rows x 100000 cols is 10000000000 points, over the bound of 1000000",
    ):
        ScanGrid(0.0, 0.0, 100_000, 100_000, 1.0, 1.0)
    monkeypatch.undo()
    assert ScanGrid(0.0, 0.0, 1000, 1000, 1.0, 1.0).point_count == 1_000_000
    with pytest.raises(ValueError, match="1000 rows x 1001 cols"):
        ScanGrid(0.0, 0.0, 1000, 1001, 1.0, 1.0)


def test_grid_probe_order_column_major(geom, monkeypatch):
    # run_scan probes row by row within each column, and the n-th cell
    # it probes takes the error of contact ordinal n
    grid = small_grid(3, 2)
    xs, ys = (a.tolist() for a in grid.axes())
    probed = []

    def cycle(x, y, **kw):
        probed.append((x, y, kw["error"]))
        return motion.probe_cycle(x, y, **kw)

    monkeypatch.setattr(scanner, "probe_cycle", cycle)
    noise = NoiseModel(sigma_contact=0.5, drift_per_contact=0.25, seed=3)
    run_scan(grid, geom, plate_scene(), noise)
    order = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
    assert probe_order(grid) == order
    assert probed == [(xs[i], ys[k], noise.error_at(n)) for n, (i, k) in enumerate(order)]


# ------------------------------------------------------------------ scan


def test_scan_1x1_grid(geom):
    result = run_scan(small_grid(1, 1), geom, plate_scene(), NoiseModel())
    assert result.points.grid.point_count == 1
    assert len(result.mesh) == 0
    assert result.points.z_measured[0, 0] == 25.0


def test_scan_20x25_counts(geom):
    result = run_scan(small_grid(20, 25, spacing=4.0), geom, plate_scene(), NoiseModel())
    cloud = result.points.measured_cloud()
    assert len(cloud) == 500
    assert len(result.mesh) == 912


def test_scan_flat_plate_zero_noise(geom):
    result = run_scan(small_grid(6, 7), geom, plate_scene(25.0), NoiseModel())
    assert (result.points.kinds == CONTACT_MESH).all()
    assert np.abs(result.points.z_measured - 25.0).max() < 1e-9
    for normal, vertices in zip(result.mesh.normals, result.mesh.vertices):
        assert np.allclose(normal, [0.0, 0.0, 1.0], atol=1e-9)
        assert np.abs(vertices[:, 2] - 25.0).max() < 1e-9


def test_scan_contact_ordinals_via_drift(geom):
    # pure drift makes each measurement encode its own contact ordinal
    drift = 0.001
    grid = small_grid(4, 5)
    result = run_scan(grid, geom, plate_scene(25.0),
                      NoiseModel(drift_per_contact=drift))
    for i, k in probe_order(grid):
        z_measured, z_true = result.points.z_measured[i, k], result.points.z_true[i, k]
        ordinal = round((z_measured - z_true) / drift)
        assert ordinal == k * grid.n_rows + i


def test_scan_unreachable_grid_aborts_before_probing(geom):
    grid = ScanGrid(500.0, -30.0, 4, 4, 40.0, 6.0, safe_z=60.0)
    with pytest.raises(UnreachableGridError) as err:
        run_scan(grid, geom, plate_scene(), NoiseModel())
    assert isinstance(err.value, UnreachableError)
    assert err.value.indices  # 1-based offenders listed
    assert all(1 <= i <= 4 and 1 <= k <= 4 for i, k in err.value.indices)


def test_scan_unreachable_grid_lists_every_offender(geom, monkeypatch):
    # the precheck solves a column per call; a failing column's points are
    # checked alone, so the error lists every offender with the first
    # one's reason, as a point-by-point precheck does
    grid = ScanGrid(470.0, -200.0, 6, 5, 30.0, 100.0, safe_z=60.0)
    offenders, first_reason = point_by_point_precheck(grid, geom)
    assert 8 < len(offenders) < grid.point_count
    monkeypatch.setattr(scanner, "probe_cycle", lambda *a, **k: pytest.fail("probing started"))
    with pytest.raises(UnreachableGridError) as err:
        run_scan(grid, geom, plate_scene(), NoiseModel())
    assert err.value.indices == offenders
    assert str(err.value) == str(UnreachableGridError(offenders, first_reason))


def test_scan_unreachable_grid_rechecks_only_its_failing_columns(geom, monkeypatch):
    # the last two of seven columns hold every offender: the precheck
    # reads them from its one solve per column and checks no point again
    grid = ScanGrid(400.0, -100.0, 5, 7, 10.0, 100.0, safe_z=60.0)
    offenders, first_reason = point_by_point_precheck(grid, geom)
    assert {k for _, k in offenders} == {6, 7}
    calls = []

    def counting_is_reachable(point, geom):
        calls.append(point)
        return is_reachable(point, geom)

    monkeypatch.setattr(scanner, "is_reachable", counting_is_reachable)
    with pytest.raises(UnreachableGridError) as err:
        run_scan(grid, geom, plate_scene(), NoiseModel())
    assert calls == []
    assert err.value.indices == offenders
    assert str(err.value) == str(UnreachableGridError(offenders, first_reason))


def test_scan_rejects_a_table_below_the_lowest_tip_height():
    # d1 - l2 - d4 - d6 = 170 - 305 - 222 - 70: the wrist center hangs
    # straight below the shoulder, the tip d6 under it
    geom = RobotGeometry()
    grid = small_grid(2, 2)
    result = run_scan(grid, geom, plate_scene(table_z=-427.0), NoiseModel())
    assert (result.points.kinds == CONTACT_MESH).all()
    with pytest.raises(
        ValueError,
        match=r"^table plane at -428 mm is below the lowest tool-down tip height -427 mm$",
    ):
        run_scan(grid, geom, plate_scene(table_z=-428.0), NoiseModel())


def test_scan_rejects_a_safe_height_one_ulp_below_a_float32_top(geom):
    # a plate read from binary STL at the float32 nearest 25.1 mm: in
    # float32 the safe height one ulp below it would round up to it
    top = float(np.float32(25.1))
    mesh = read_stl(write_stl_binary(make_plate(230.0, -40.0, 40.0, 40.0, top)))
    assert mesh.vertices.dtype == np.float32
    grid = ScanGrid(240.0, -30.0, 2, 2, 6.0, 6.0, safe_z=top)
    assert (run_scan(grid, geom, TargetScene(mesh), NoiseModel()).points.kinds == CONTACT_MESH).all()
    grid = ScanGrid(240.0, -30.0, 2, 2, 6.0, 6.0, safe_z=math.nextafter(top, -math.inf))
    with pytest.raises(ConfigError, match=r"^safe height 25.1 mm is below the scene top at 25.1 mm$"):
        run_scan(grid, geom, TargetScene(mesh), NoiseModel())


def test_scan_with_failing_descents_matches_waypoint_loop(geom, monkeypatch):
    # around the base, descents from 200 mm leave the elbow annulus or
    # push joint 3 past its stop; the plate covers x > 0 only
    scene = TargetScene(make_plate(0.0, -100.0, 200.0, 200.0, 25.0))
    grid = ScanGrid(-150.0, -150.0, 7, 7, 50.0, 50.0, safe_z=200.0)
    noise = NoiseModel(sigma_contact=0.01, seed=3)
    legs = run_scan(grid, geom, scene, noise)
    monkeypatch.setattr(motion, "plan_line", plan_line_loop)
    loop = run_scan(grid, geom, scene, noise)

    kinds = legs.points.kinds
    assert np.array_equal(kinds, loop.points.kinds)
    assert {CONTACT_MESH, CONTACT_TABLE, CONTACT_UNREACHABLE} <= set(kinds.ravel())
    unreachable = kinds == CONTACT_UNREACHABLE
    assert np.isnan(legs.points.z_true[unreachable]).all()
    assert np.array_equal(np.isnan(legs.points.z_measured), unreachable)
    assert legs.trace.angles.shape == loop.trace.angles.shape
    assert legs.trace.angles.tobytes() == loop.trace.angles.tobytes()
    assert write_stl_binary(legs.mesh) == write_stl_binary(loop.mesh)


def lateral_leg_fails(grid, geom) -> bool:
    """Whether `plan_line_loop` fails a leg between consecutive cells."""
    xs, ys = (a.tolist() for a in grid.axes())
    cells = [(xs[i], ys[k], grid.safe_z) for i, k in probe_order(grid)]
    for start, end in zip(cells, cells[1:]):
        try:
            plan_line_loop(line_waypoints(start, end), geom)
        except UnreachableError:
            return True
    return False


# (grid, scene, noise) with cells on both sides of the base, so that
# lateral legs across it fail
FAILING_LATERALS = (
    ScanGrid(-200.0, -10.0, 2, 3, 400.0, 200.0, safe_z=60.0),
    TargetScene(make_plate(-300.0, -300.0, 600.0, 800.0, 25.0)),
    NoiseModel(sigma_contact=0.02, drift_per_contact=0.001, seed=3),
)


OFF_BITS_GRID = ScanGrid(-120.3, 250.7, 4, 3, 110.9, 13.1, safe_z=60.0)


def test_off_bits_grid_has_lateral_ends_off_their_grid_points():
    xs, ys = (a.tolist() for a in OFF_BITS_GRID.axes())
    cells = [(xs[i], ys[k], 60.0) for i, k in probe_order(OFF_BITS_GRID)]
    ends = [line_waypoints(start, end)[-1] for start, end in zip(cells, cells[1:])]
    off = [end for end, cell in zip(ends, cells[1:]) if POINT_BITS(*end) != POINT_BITS(*cell)]
    assert len(ends) == 11 and len(off) == 2
    scene = TargetScene(make_plate(-200.0, 200.0, 400.0, 150.0, 25.0))
    kinds = run_scan(OFF_BITS_GRID, RobotGeometry(), scene, NoiseModel()).points.kinds
    assert CONTACT_UNREACHABLE not in kinds


@pytest.mark.parametrize(
    "grid, scene, noise, flip, lateral_fails",
    [
        # the 3x4 plate of the seam-row test
        (ScanGrid(260.0, -20.0, 3, 4, 10.0, 10.0, safe_z=60.0),
         TargetScene(make_plate(200.0, -100.0, 200.0, 200.0, 25.0)),
         NoiseModel(sigma_contact=0.02, drift_per_contact=0.001, seed=5), False, False),
        # the failing descents of the waypoint-loop test
        (ScanGrid(-150.0, -150.0, 7, 7, 50.0, 50.0, safe_z=200.0),
         TargetScene(make_plate(0.0, -100.0, 200.0, 200.0, 25.0)),
         NoiseModel(sigma_contact=0.01, seed=3), False, False),
        # a wing patch over its trailing corner: misses leave holes
        (ScanGrid(350.0, 46.0, 5, 6, 6.0, 6.0, safe_z=60.0),
         TargetScene(make_wing(220.0, -70.0), floor_mode="skip"),
         NoiseModel(sigma_contact=0.05, seed=2), True, False),
        # cells on both sides of the base: lateral legs across it fail
        (*FAILING_LATERALS, False, True),
        # the 3x4 plate under a drift that lifts 9 of the 12 contacts past
        # the arm's reach: those cells are unreachable before their descents
        # are planned, and the trace holds 275 rows
        (ScanGrid(260.0, -20.0, 3, 4, 10.0, 10.0, safe_z=60.0),
         TargetScene(make_plate(200.0, -100.0, 200.0, 200.0, 25.0)),
         NoiseModel(sigma_contact=0.02, drift_per_contact=200.0, seed=5), False, False),
        # decimal corner and spacings: on 2 of the 11 lateral legs the
        # last waypoint is not bit-equal to its grid point, so it is
        # solved, not taken from the precheck
        (OFF_BITS_GRID, TargetScene(make_plate(-200.0, 200.0, 400.0, 150.0, 25.0)),
         NoiseModel(sigma_contact=0.02, drift_per_contact=0.001, seed=4), False, False),
    ],
    ids=[
        "plate-3x4", "failing-descents-7x7", "wing-skip-misses", "failing-laterals",
        "contacts-past-reach", "off-bits-laterals",
    ],
)
def test_scan_matches_cell_by_cell_reference(
    geom, grid, scene, noise, flip, lateral_fails
):
    assert lateral_leg_fails(grid, geom) == lateral_fails
    result = run_scan(grid, geom, scene, noise, flip_normals=flip)
    kinds, z_true, z_measured, angles, facets = scan_reference(
        grid, geom, scene, noise, flip_normals=flip
    )
    points = result.points
    assert points.kinds.tobytes() == kinds.tobytes()
    assert points.z_true.tobytes() == z_true.tobytes()
    assert points.z_measured.tobytes() == z_measured.tobytes()
    assert result.trace.angles.shape == angles.shape
    assert result.trace.angles.tobytes() == angles.tobytes()
    assert result.mesh.vertices.shape == facets.shape
    assert result.mesh.vertices.tobytes() == facets.tobytes()


def test_scan_marks_a_contact_without_a_finite_height_unreachable(geom):
    # sigma 1e308 and drift -1e308 overflow to opposite infinities at
    # ordinal 78, cell (8, 7): a touch with a NaN measured height, which
    # the descent must not take for a miss and probe through the mesh
    grid = ScanGrid(260, -20, 10, 8, 5, 5, 60)
    scene = TargetScene(make_plate(250, -30, 80, 80, 25))
    noise = NoiseModel(1e308, -1e308, 0)
    assert math.isnan(noise.errors(range(80))[78])
    result = run_scan(grid, geom, scene, noise)
    points = result.points
    assert points.kinds[8, 7] == CONTACT_UNREACHABLE
    assert math.isnan(points.z_true[8, 7]) and math.isnan(points.z_measured[8, 7])
    assert "mesh contacts   1\n" not in result.summary()
    # a touch has two finite heights; a cell without one has two NaNs
    touched = np.isin(points.kinds, [CONTACT_MESH, CONTACT_TABLE])
    assert np.isfinite(points.z_true[touched]).all()
    assert np.isfinite(points.z_measured[touched]).all()
    assert np.isnan(points.z_true[~touched]).all() and np.isnan(points.z_measured[~touched]).all()
    kinds, z_true, z_measured, angles, _ = scan_reference(grid, geom, scene, noise)
    assert points.kinds.tobytes() == kinds.tobytes()
    assert points.z_measured.tobytes() == z_measured.tobytes()
    assert result.trace.angles.tobytes() == angles.tobytes()


def decimals(lo: int, hi: int):
    """Numbers of one decimal place in [lo, hi]; most are not binary
    fractions, so lattice coordinates pick up rounding."""
    return st.integers(10 * lo, 10 * hi).map(lambda tenths: tenths / 10)


# a plate over part of the workspace and a wing patch of 240 facets
PLATE, WING_PATCH = make_plate(-300.0, -300.0, 600.0, 500.0, 25.0), make_wing(220.0, -70.0, 11, 13)


@st.composite
def scan_cases(draw):
    """(mesh, grid): a grid of at most 6 x 6 points over the plate, its
    corner in the workspace's annulus at any bearing or just behind the
    y axis, so that some laterals cross x = 0, or around the wing patch,
    so that some probes miss.  Some cells lie out of reach, some whole
    grids too."""
    mesh = draw(st.sampled_from([PLATE, WING_PATCH]))
    if mesh is PLATE and draw(st.booleans()):
        radius, bearing = draw(decimals(150, 500)), math.radians(draw(st.integers(0, 359)))
        x0, y0 = round(radius * math.cos(bearing), 1), round(radius * math.sin(bearing), 1)
    elif mesh is PLATE:  # across the y axis, in front of or behind the base
        x0, y0 = draw(decimals(-150, -1)), draw(st.sampled_from([-1, 1])) * draw(decimals(180, 330))
    else:
        x0, y0 = draw(decimals(190, 380)), draw(decimals(-100, 80))
    grid = ScanGrid(
        x0=x0,
        y0=y0,
        n_rows=draw(st.integers(1, 6)),
        n_cols=draw(st.integers(1, 6)),
        row_spacing=draw(decimals(1, 60)),
        col_spacing=draw(decimals(1, 60)),
        safe_z=draw(st.sampled_from([60.0]) | decimals(30, 150)),
    )
    return mesh, grid


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    case=scan_cases(),
    floor_mode=st.sampled_from(["table", "skip"]),
    table_z=st.sampled_from([0.0, -427.0]) | decimals(-427, 0),
    sigma=st.sampled_from([0.0, 1e308]) | st.floats(0.0, 1.0),
    drift=st.sampled_from([0.0, 1e308, -1e308]) | st.floats(-1000.0, 1000.0),
    seed=st.integers(0, 2**32),
)
# sigma and drift overflow to opposite infinities at ordinal 78: a touch
# with a NaN measured height, which used to come back `mesh`
@example(case=(make_plate(250, -30, 80, 80, 25), ScanGrid(260, -20, 10, 8, 5, 5, 60)),
         floor_mode="table", table_z=0.0, sigma=1e308, drift=-1e308, seed=0)
# a wing patch past its trailing corner: skip-mode misses leave holes
@example(case=(WING_PATCH, ScanGrid(340.3, 41.7, 5, 6, 7.3, 6.1, 60.0)), floor_mode="skip",
         table_z=0.0, sigma=0.05, drift=0.0, seed=2)
# cells on both sides of the base
@example(case=(PLATE, ScanGrid(-200.0, -10.0, 2, 3, 400.0, 200.0, 60.0)), floor_mode="table",
         table_z=-50.0, sigma=0.02, drift=0.001, seed=3)
def test_scan_matches_cell_by_cell_reference_on_random_grids(
    case, floor_mode, table_z, sigma, drift, seed
):
    mesh, grid = case
    geom = RobotGeometry()
    scene = TargetScene(mesh, table_z=table_z, floor_mode=floor_mode)
    noise = NoiseModel(sigma_contact=sigma, drift_per_contact=drift, seed=seed)
    offenders, first_reason = point_by_point_precheck(grid, geom)
    if offenders:
        event("unreachable at the safe height")
        with pytest.raises(UnreachableGridError) as err:
            run_scan(grid, geom, scene, noise)
        assert err.value.indices == offenders
        assert str(err.value) == str(UnreachableGridError(offenders, first_reason))
        return
    xs = grid.axes()[0].tolist()
    if xs[0] < 0.0 < xs[-1]:
        event("laterals cross x = 0")
    rays = []

    def counting_raycast(*args):
        rays.append(args[:2])
        return raycast_down(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scene_module, "raycast_down", counting_raycast)
        result = run_scan(grid, geom, scene, noise)
    # one ray per cell, whether or not its legs solve
    assert len(rays) == grid.point_count
    kinds, z_true, z_measured, angles, facets = scan_reference(grid, geom, scene, noise)
    points = result.points
    for kind in set(points.kinds.ravel()):
        event(f"some cells {kind}")
    assert points.kinds.tobytes() == kinds.tobytes()
    assert points.z_true.tobytes() == z_true.tobytes()
    assert points.z_measured.tobytes() == z_measured.tobytes()
    assert result.trace.angles.shape == angles.shape
    assert result.trace.angles.tobytes() == angles.tobytes()
    assert result.trace.to_csv() == trace_csv_reference(angles)
    assert result.mesh.vertices.tobytes() == facets.tobytes()
    # a touch has two finite heights; a cell without one has two NaNs
    touched = np.isin(points.kinds, [CONTACT_MESH, CONTACT_TABLE])
    assert np.isfinite(points.z_true[touched]).all()
    assert np.isfinite(points.z_measured[touched]).all()
    assert np.isnan(points.z_true[~touched]).all() and np.isnan(points.z_measured[~touched]).all()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    case=scan_cases(),
    floor_mode=st.sampled_from(["table", "skip"]),
    table_z=st.sampled_from([0.0, -427.0]) | decimals(-427, 0),
    drift=st.sampled_from([0.0, 1e308, -1e308]) | st.floats(-1000.0, 1000.0),
)
# lateral legs across the base fail, and so do descents around it and
# contacts lifted past the reach
@example(case=(FAILING_LATERALS[1].mesh, FAILING_LATERALS[0]), floor_mode="table", table_z=0.0,
         drift=0.0)
@example(case=(make_plate(0.0, -100.0, 200.0, 200.0, 25.0),
               ScanGrid(-150.0, -150.0, 6, 6, 50.0, 50.0, safe_z=200.0)),
         floor_mode="table", table_z=0.0, drift=0.0)
@example(case=(make_plate(200.0, -100.0, 200.0, 200.0, 25.0),
               ScanGrid(260.0, -20.0, 3, 4, 10.0, 10.0, safe_z=60.0)),
         floor_mode="table", table_z=0.0, drift=200.0)
def test_scan_leaves_no_orphan_rows_when_cycles_fail(case, floor_mode, table_z, drift):
    # a cycle whose legs fail adds no row to the table that its waypoints
    # do not name: every row past the precheck's is in the trace index
    mesh, grid = case
    geom = RobotGeometry()
    if point_by_point_precheck(grid, geom)[0]:
        return
    scene = TargetScene(mesh, table_z=table_z, floor_mode=floor_mode)
    result = run_scan(grid, geom, scene, NoiseModel(drift_per_contact=drift))
    if (result.points.kinds == CONTACT_UNREACHABLE).any():
        event("some cells unreachable")
    trace = result.trace
    cycle_rows = np.arange(grid.point_count, len(trace.table))
    assert np.isin(cycle_rows, trace.index).all()


def tour_reference(grid, geom):
    """The points of the scan's kernel calls, in order: each column's grid
    points; then, if none is an offender, each column's lateral legs,
    per cell the waypoints of `line_waypoints_reference` from the
    previous grid point but a first or last one with the bits of either
    end."""
    xs, ys = (a.tolist() for a in grid.axes())
    tours = [[(x, y, grid.safe_z) for x in xs] for y in ys]
    if not point_by_point_precheck(grid, geom)[0]:
        start = None
        for y in ys:
            tours.append([])
            for x in xs:
                here = (x, y, grid.safe_z)
                if start is not None:
                    leg = line_waypoints_reference(start, here).tolist()
                    ends = {POINT_BITS(*start), POINT_BITS(*here)}
                    head = POINT_BITS(*leg[0]) in ends
                    tail = len(leg) > 1 and POINT_BITS(*leg[-1]) in ends
                    tours[-1] += leg[head : len(leg) - tail]
                start = here
    return [[POINT_BITS(*point) for point in tour] for tour in tours]


# a plate below every safe height drawn here, -0.0 included
LOW_PLATE = TargetScene(make_plate(-300.0, -300.0, 600.0, 600.0, -10.0), table_z=-20.0)
# grid corners in the arm's annulus, or far out, near 1e6 mm
NEAR_CORNERS = st.tuples(decimals(150, 400), decimals(-300, 250))
FAR_COORDS = (
    st.floats(-1e6, 1e6)
    | st.sampled_from([999_999.7, -1e6])
    | st.floats(-1e6, 1e6).map(lambda v: math.copysign(1e6, v) - v % 10)
)
TOUR_CORNERS = NEAR_CORNERS | NEAR_CORNERS | st.tuples(FAR_COORDS, FAR_COORDS)
TOUR_SPACINGS = (
    st.sampled_from([0.3, 0.7, 110.9])
    | st.integers(1, 12).map(lambda m: m * motion.STEP)
    | decimals(1, 60)
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    corner=TOUR_CORNERS,
    n_rows=st.integers(1, 5),
    n_cols=st.integers(1, 5),
    row_spacing=TOUR_SPACINGS,
    col_spacing=TOUR_SPACINGS,
    safe_z=st.sampled_from([-0.0, 0.0, 60.0]),
)
@example(corner=(OFF_BITS_GRID.x0, OFF_BITS_GRID.y0), n_rows=4, n_cols=3, row_spacing=110.9,
         col_spacing=13.1, safe_z=60.0)
@example(corner=(240.1, -30.7), n_rows=5, n_cols=4, row_spacing=0.3, col_spacing=0.7, safe_z=-0.0)
@example(corner=(250.0, -20.0), n_rows=3, n_cols=3, row_spacing=15.0, col_spacing=10.0, safe_z=0.0)
@example(corner=(999_999.7, -1e6), n_rows=3, n_cols=2, row_spacing=0.3, col_spacing=5.0, safe_z=60.0)
def test_precheck_tour_matches_line_waypoints(corner, n_rows, n_cols, row_spacing, col_spacing,
                                              safe_z):
    # the points the scan's kernel calls solve, and the rows each
    # cycle's lateral leg gets, are those of the reference legs, bit for
    # bit, each leg end with a grid point's bits taking that point's row,
    # the cell's own first
    grid = ScanGrid(*corner, n_rows, n_cols, row_spacing, col_spacing, safe_z=safe_z)
    geom, kernel, tours, cycles = RobotGeometry(), scanner._path_kernel, [], []

    def recording_kernel(points, *args):
        tours.append([POINT_BITS(*point) for point in points])
        return kernel(points, *args)

    def recording_cycle(x, y, **kw):
        cycles.append((x, y, kw["here_row"], kw["lateral"], kw["table"]))
        return motion.probe_cycle(x, y, **kw)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scanner, "_path_kernel", recording_kernel)
        patch.setattr(scanner, "probe_cycle", recording_cycle)
        try:
            run_scan(grid, geom, LOW_PLATE, NoiseModel())
        except UnreachableGridError:
            event("unreachable at the safe height")
    assert tours == tour_reference(grid, geom)
    for (x, y, c, lateral, table), start in zip(cycles[1:], cycles):
        here, start = (x, y, safe_z), (*start[:2], safe_z)
        leg = line_waypoints_reference(start, here).tolist()
        try:
            angles = plan_line_loop(leg, geom)
        except UnreachableError:
            assert lateral is None
            continue
        assert motion.JointTrace(table, lateral).angles.tobytes() == np.array(angles).tobytes()
        for end, row in ((leg[0], lateral[0]), (leg[-1], lateral[-1])):
            expected = {POINT_BITS(*start): c - 1, POINT_BITS(*here): c}.get(POINT_BITS(*end))
            assert row == expected or expected is None and row >= grid.point_count


@pytest.mark.parametrize(
    "grid, calls",
    [
        # 1,000 mm lateral legs, past any pair of reachable points
        (ScanGrid(-1000.0, -1000.0, 3, 3, 1000.0, 1000.0, safe_z=60.0), [3, 3, 3]),
        # the last two of seven columns hold all 6 offenders
        (ScanGrid(400.0, -100.0, 5, 7, 10.0, 100.0, safe_z=60.0), [5] * 7),
    ],
    ids=["wider-than-the-reach", "last-two-columns-fail"],
)
def test_precheck_builds_no_legs_when_a_grid_point_fails(geom, monkeypatch, grid, calls):
    # the kernel calls solve the grid points alone, one column a call,
    # and the error is that of the point checks
    kernel, tours = scanner._path_kernel, []

    def recording_kernel(points, *args):
        tours.append(len(points))
        return kernel(points, *args)

    monkeypatch.setattr(scanner, "_path_kernel", recording_kernel)
    offenders, first_reason = point_by_point_precheck(grid, geom)
    with pytest.raises(UnreachableGridError) as err:
        run_scan(grid, geom, plate_scene(), NoiseModel())
    assert tours == calls
    assert err.value.indices == offenders
    assert str(err.value) == str(UnreachableGridError(offenders, first_reason))


def test_scan_takes_one_contact_per_cell_when_a_lateral_leg_fails(geom, monkeypatch):
    # a cell whose lateral leg fails still casts its ray, so the rays
    # equal the points probed and the cycles' rows sum to the trace
    grid, scene, noise = FAILING_LATERALS
    rays, rows = [], []

    def counting_raycast(*args):
        rays.append(args[:2])
        return raycast_down(*args)

    def counting_probe_cycle(*args, **kwargs):
        contact, angles = motion.probe_cycle(*args, **kwargs)
        rows.append(len(angles))
        return contact, angles

    monkeypatch.setattr(scene_module, "raycast_down", counting_raycast)
    monkeypatch.setattr(scanner, "probe_cycle", counting_probe_cycle)
    result = run_scan(grid, geom, scene, noise)
    assert (result.points.kinds == CONTACT_UNREACHABLE).any()
    assert len(rays) == len(rows) == grid.point_count == 6
    assert sum(rows) == len(result.trace)


def test_scan_solves_each_distinct_point_once(monkeypatch):
    # the precheck's tour solves the grid points and the lateral legs'
    # other waypoints; its rows serve the descent starts and the leg
    # ends with the same bits: every point is solved once, and each
    # cycle makes one plan_line call
    grid = ScanGrid(260.0, -20.0, 3, 4, 10.0, 10.0, safe_z=60.0)
    scene = TargetScene(make_plate(200.0, -100.0, 200.0, 200.0, 25.0))
    noise = NoiseModel(sigma_contact=0.02, drift_per_contact=0.001, seed=5)
    solved, cycle_calls = [], []
    kernel, solve_path, plan_line = scanner._path_kernel, motion.solve_path, motion.plan_line

    def counting_kernel(points, rot, geom, rows, failures):
        solved.extend(points)
        return kernel(points, rot, geom, rows, failures)

    def counting_solve_path(points, rot, geom):
        solved.extend(points)
        return solve_path(points, rot, geom)

    def counting_plan_line(waypoints, geom):
        cycle_calls.append(len(waypoints))
        return plan_line(waypoints, geom)

    monkeypatch.setattr(scanner, "_path_kernel", counting_kernel)
    monkeypatch.setattr(motion, "solve_path", counting_solve_path)
    monkeypatch.setattr(motion, "plan_line", counting_plan_line)
    points = run_scan(grid, RobotGeometry(), scene, noise).points
    assert (points.kinds == CONTACT_MESH).all()

    xs, ys = (a.tolist() for a in grid.axes())
    cells = [(xs[i], ys[k], 60.0) for i, k in probe_order(grid)]
    legs = [line_waypoints_reference(a, b) for a, b in zip(cells, cells[1:])]
    legs += [
        line_waypoints_reference(cell, (*cell[:2], points.z_measured[i, k]))
        for (i, k), cell in zip(probe_order(grid), cells)
    ]
    every = [tuple(p) for p in cells] + [tuple(p) for leg in legs for p in leg.tolist()]
    solved_bits = [POINT_BITS(*p) for p in solved]
    assert len(solved_bits) == len(set(solved_bits))  # no point twice
    assert set(solved_bits) == {POINT_BITS(*p) for p in every}
    # the 12 descent starts and the 11 laterals' 22 ends are grid points
    assert len(solved) == len(every) - 12 - 22
    assert len(cycle_calls) == grid.point_count


def test_scan_peak_memory_per_trace_row():
    # the trace is one table of solved rows and one row index; the scan
    # used to hold each cycle's (N, 6) array and then their concatenation,
    # 121 bytes per trace row at peak on this grid against 65 now
    grid = ScanGrid(230.0, -60.0, 20, 20, 6.0, 6.0, safe_z=60.0)
    scene = TargetScene(make_plate(200.0, -100.0, 200.0, 200.0, 25.0))
    geom, noise = RobotGeometry(), NoiseModel(sigma_contact=0.02, drift_per_contact=0.001, seed=5)
    run_scan(small_grid(2, 2), geom, scene, noise)  # first-call set-up, outside the count
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = run_scan(grid, geom, scene, noise)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(result.trace) == 7207
    assert peak / len(result.trace) < 80.0


def test_scan_peak_memory_per_grid_point():
    # a 60 x 60 lattice over the whole wing, 23.6 waypoints a point: the
    # table and the row index hold the scan's memory, and the contacts
    # are held one column at a time; about 1,320 bytes a point at peak
    grid = ScanGrid(220.0, -70.0, 60, 60, 2.5, 2.3, safe_z=60.0)
    scene = TargetScene(make_wing(220.0, -70.0))
    geom, noise = RobotGeometry(), NoiseModel(sigma_contact=0.02, drift_per_contact=0.0001, seed=7)
    run_scan(small_grid(2, 2), geom, scene, noise)  # first-call set-up, outside the count
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = run_scan(grid, geom, scene, noise)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (result.points.kinds == CONTACT_MESH).all()
    assert len(result.trace) == 84908
    assert peak / grid.point_count < 1700.0


def test_grid_spacing_below_corner_resolution_rejected():
    # 240 + 1e-14 == 240: the nominal 1e-12 mm^2 cell has no area at all
    with pytest.raises(ValueError, match="degenerate"):
        ScanGrid(240.0, -30.0, 3, 3, 1e-14, 100.0)
    with pytest.raises(ValueError, match="degenerate"):
        ScanGrid(-30.0, 240.0, 3, 3, 100.0, 1e-14)
    # the same spacing clears the tolerance at a corner that resolves it
    ScanGrid(0.0, 0.0, 3, 3, 1e-14, 100.0)


def test_coordinates_match_grid_points_bit_for_bit(geom, monkeypatch):
    # spacings that are not binary fractions round differently per point
    grid = ScanGrid(240.1, -30.7, 7, 5, 0.3, 0.7, safe_z=60.0)
    scene = TargetScene(make_plate(180.0, -29.0, 220.0, 160.0, 25.0), floor_mode="skip")
    touched = []

    def recording_probe_contact(x, y, *args):
        touched.append((x, y))
        return probe_contact(x, y, *args)

    monkeypatch.setattr(motion, "probe_contact", recording_probe_contact)
    points = run_scan(grid, geom, scene, NoiseModel(sigma_contact=0.02, seed=1)).points
    q = points.coordinates()
    assert q.shape == (5, 7, 3)
    written = [(240.1 + i * 0.3, -30.7 + k * 0.7) for i, k in probe_order(grid)]
    assert len(touched) == len(written)
    for (i, k), xy, probed in zip(probe_order(grid), written, touched):
        assert q[k, i, :2].tobytes() == np.array(xy).tobytes()
        assert np.array(probed).tobytes() == np.array(xy).tobytes()
    no_height = np.isin(points.kinds, [CONTACT_NONE, CONTACT_UNREACHABLE]).T
    assert 0 < no_height.sum() < grid.point_count
    assert np.array_equal(np.isnan(q[..., 2]), no_height)
    assert q[..., 2][~no_height].tobytes() == points.z_measured.T[~no_height].tobytes()


def test_scan_seam_rows_repeat_at_cycle_boundaries(monkeypatch):
    # Legs within a cycle share their seam row once, but cycles do not:
    # each lateral leg starts on the row the previous cycle ended on.
    # The golden trace hashes and the report's waypoint count pin these
    # rows; this pins where they are (the 3x4 plate of the benchmark
    # tracer test).
    lengths = []

    def recording_probe_cycle(*args, **kwargs):
        contact, angles = motion.probe_cycle(*args, **kwargs)
        lengths.append(len(angles))
        return contact, angles

    monkeypatch.setattr(scanner, "probe_cycle", recording_probe_cycle)
    grid = ScanGrid(260.0, -20.0, 3, 4, 10.0, 10.0, safe_z=60.0)
    scene = TargetScene(make_plate(200.0, -100.0, 200.0, 200.0, 25.0))
    rows = run_scan(grid, RobotGeometry(), scene, NoiseModel()).trace.angles
    assert len(rows) == 211 and len(lengths) == 12
    repeats = np.nonzero((rows[1:] == rows[:-1]).all(axis=1))[0] + 1
    assert repeats.tolist() == np.cumsum(lengths)[:-1].tolist()
    assert len(repeats) == 11


def test_scan_deterministic(geom):
    noise = NoiseModel(sigma_contact=0.05, drift_per_contact=0.0005, seed=3)
    a = run_scan(small_grid(5, 6), geom, plate_scene(), noise)
    b = run_scan(small_grid(5, 6), geom, plate_scene(), noise)
    assert write_stl_binary(a.mesh) == write_stl_binary(b.mesh)
    assert a.trace.to_csv() == b.trace.to_csv()
    assert np.array_equal(
        a.points.measured_cloud().points, b.points.measured_cloud().points
    )


# ------------------------------------------------------------------ triangulation


def test_triangulate_2x2_exact_vertex_sequences(geom):
    grid = small_grid(2, 2)
    result = run_scan(grid, geom, plate_scene(25.0), NoiseModel())
    q = {
        (i, k): np.array(
            [240.0 + i * 6.0, -30.0 + k * 6.0, result.points.z_measured[i, k]]
        )
        for i, k in probe_order(grid)
    }
    mesh = result.mesh
    assert len(mesh) == 2
    first, second = mesh.vertices
    assert np.allclose(first[0], q[(1, 1)])
    assert np.allclose(first[1], q[(0, 1)])
    assert np.allclose(first[2], q[(0, 0)])
    assert np.allclose(second[0], q[(1, 1)])
    assert np.allclose(second[1], q[(0, 0)])
    assert np.allclose(second[2], q[(1, 0)])


def test_triangle_count_law(geom, rng):
    for _ in range(6):
        r = int(rng.integers(1, 7))
        c = int(rng.integers(1, 7))
        result = run_scan(small_grid(r, c), geom, plate_scene(), NoiseModel())
        assert len(result.mesh) == 2 * (r - 1) * (c - 1)


def test_triangulate_skips_cells_with_holes(geom):
    # plate covering only y >= -6: the first column misses in skip mode
    scene = TargetScene(
        make_plate(180.0, -6.0, 220.0, 160.0, 25.0), floor_mode="skip"
    )
    grid = small_grid(4, 5)  # columns at y = -30, -24, ..., -6
    result = run_scan(grid, geom, scene, NoiseModel())
    misses = result.points.count(CONTACT_NONE)
    assert misses == 16  # 4 of 5 columns clear the plate
    assert len(result.mesh) == 0  # only one contacted column: no full cell

    scene2 = TargetScene(
        make_plate(180.0, -18.0, 220.0, 160.0, 25.0), floor_mode="skip"
    )
    result2 = run_scan(grid, geom, scene2, NoiseModel())
    assert result2.points.count(CONTACT_NONE) == 8
    # full cells only among the last three columns
    assert len(result2.mesh) == 2 * (4 - 1) * (3 - 1)


def test_triangulate_flip_normals(geom):
    result = run_scan(
        small_grid(3, 3), geom, plate_scene(25.0), NoiseModel(), flip_normals=True
    )
    for normal in result.mesh.normals:
        assert np.allclose(normal, [0.0, 0.0, -1.0], atol=1e-9)
    # same facets with reversed winding, normals negated exactly
    upward = triangulate(result.points)
    assert np.array_equal(result.mesh.vertices, upward.vertices[:, [0, 2, 1]])
    assert np.array_equal(result.mesh.normals, -upward.normals)


def test_triangulate_matches_cell_loop_with_random_holes(rng):
    for _ in range(20):
        r, c = (int(n) for n in rng.integers(1, 9, size=2))
        grid = ScanGrid(240.0, -30.0, r, c, 6.0, 4.0)
        heights = rng.uniform(0.0, 30.0, size=(r, c))
        holes = rng.random((r, c)) < 0.2
        kinds = np.where(holes, CONTACT_NONE, CONTACT_MESH)
        z = np.where(holes, np.nan, heights)
        points = [
            [None if holes[i, k] else (240.0 + i * 6.0, -30.0 + k * 4.0, heights[i, k])
             for k in range(c)]
            for i in range(r)
        ]
        mesh = triangulate(PointGrid(grid, kinds, z, z))
        expected = triangulate_loop(points, r, c)
        assert np.array_equal(mesh.vertices, expected)
        for vertices, normal in zip(expected, mesh.normals):
            cross = np.cross(vertices[1] - vertices[0], vertices[2] - vertices[0])
            assert np.allclose(normal, cross / np.linalg.norm(cross), rtol=0, atol=1e-15)


def test_triangulate_pure_function_of_grid(geom):
    result = run_scan(small_grid(4, 4), geom, plate_scene(), NoiseModel())
    again = triangulate(result.points)
    assert write_stl_binary(again) == write_stl_binary(result.mesh)


def test_triangulate_projected_area_tiles_rectangle(geom):
    grid = small_grid(5, 7, spacing=6.0)
    result = run_scan(grid, geom, plate_scene(), NoiseModel())
    area = 0.0
    for vertices in result.mesh.vertices:
        (x1, y1), (x2, y2), (x3, y3) = vertices[:, :2]
        area += abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)) / 2.0
    assert area == pytest.approx((5 - 1) * (7 - 1) * 36.0, abs=1e-9)


def test_triangulate_interior_edges_shared_twice(geom):
    grid = small_grid(4, 5)
    result = run_scan(grid, geom, plate_scene(), NoiseModel())
    edges = {}
    for vertices in result.mesh.vertices:
        vs = [tuple(np.round(v, 9)) for v in vertices]
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = tuple(sorted([vs[a], vs[b]]))
            edges[key] = edges.get(key, 0) + 1
    assert set(edges.values()) <= {1, 2}
    shared = sum(1 for n in edges.values() if n == 2)
    r, c = grid.n_rows, grid.n_cols
    interior_lattice = (r - 1) * (c - 2) + (r - 2) * (c - 1)
    diagonals = (r - 1) * (c - 1)
    assert shared == interior_lattice + diagonals


def test_height_map_single_cover(geom, rng):
    grid = small_grid(4, 4)
    result = run_scan(grid, geom, plate_scene(), NoiseModel())
    tris = result.mesh.vertices
    for _ in range(200):
        x = rng.uniform(grid.x0 + 0.01, grid.x0 + 3 * 6.0 - 0.01)
        y = rng.uniform(grid.y0 + 0.01, grid.y0 + 3 * 6.0 - 0.01)
        strictly_inside = 0
        for tri in tris:
            v1, v2, v3 = tri
            det = (v2[0] - v1[0]) * (v3[1] - v1[1]) - (v3[0] - v1[0]) * (v2[1] - v1[1])
            u = ((x - v1[0]) * (v3[1] - v1[1]) - (y - v1[1]) * (v3[0] - v1[0])) / det
            v = ((y - v1[1]) * (v2[0] - v1[0]) - (x - v1[0]) * (v2[1] - v1[1])) / det
            if u > 1e-9 and v > 1e-9 and u + v < 1.0 - 1e-9:
                strictly_inside += 1
        assert strictly_inside <= 1


# ------------------------------------------------------------------ wing


def test_scan_wing_measures_surface_heights(geom):
    wing = make_wing(220.0, -70.0)
    scene = TargetScene(wing)
    grid = ScanGrid(240.0, -40.0, 5, 6, 6.0, 6.0, safe_z=60.0)
    result = run_scan(grid, geom, scene, NoiseModel())
    zs = result.points.z_measured
    assert (result.points.kinds == CONTACT_MESH).all()
    assert zs.max() > 5.0  # over the cambered hump
    assert zs.min() >= 0.0


def test_summary_counts(geom):
    result = run_scan(small_grid(3, 4), geom, plate_scene(), NoiseModel())
    text = result.summary()
    assert "points probed   12" in text
    assert "mesh contacts   12" in text
    assert "triangles       12" in text
