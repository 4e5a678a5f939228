import numpy as np
import pytest

from armscan import motion
from armscan.meshio import write_stl_binary
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
)

from oracles import plan_line_loop, triangulate_loop


def plate_scene(z=25.0, **kw):
    # big enough to cover every grid used here
    return TargetScene(make_plate(180.0, -120.0, 220.0, 240.0, z), **kw)


def small_grid(n_rows, n_cols, spacing=6.0):
    return ScanGrid(
        x0=240.0, y0=-30.0, n_rows=n_rows, n_cols=n_cols,
        row_spacing=spacing, col_spacing=spacing, safe_z=60.0,
    )


# ------------------------------------------------------------------ grid


def test_grid_point_formula():
    g = ScanGrid(10.0, 20.0, 5, 4, 2.0, 3.0)
    assert g.point(0, 0) == (10.0, 20.0)
    assert g.point(3, 2) == (10.0 + 3 * 2.0, 20.0 + 2 * 3.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        ScanGrid(0, 0, 0, 5, 1.0, 1.0)
    with pytest.raises(ValueError):
        ScanGrid(0, 0, 5, 5, -1.0, 1.0)


def test_grid_probe_order_column_major():
    g = ScanGrid(0, 0, 3, 2, 1.0, 1.0)
    order = list(g.probe_order())
    assert order == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
    assert [g.contact_ordinal(i, k) for i, k in order] == list(range(6))


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
    for i, k in grid.probe_order():
        z_measured, z_true = result.points.z_measured[i, k], result.points.z_true[i, k]
        ordinal = round((z_measured - z_true) / drift)
        assert ordinal == k * grid.n_rows + i


def test_scan_unreachable_grid_aborts_before_probing(geom):
    grid = ScanGrid(500.0, -30.0, 4, 4, 40.0, 6.0, safe_z=60.0)
    with pytest.raises(UnreachableGridError) as err:
        run_scan(grid, geom, plate_scene(), NoiseModel())
    assert err.value.indices  # 1-based offenders listed
    assert all(1 <= i <= 4 and 1 <= k <= 4 for i, k in err.value.indices)


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


def test_grid_spacing_below_corner_resolution_rejected():
    # 240 + 1e-14 == 240: the nominal 1e-12 mm^2 cell has no area at all
    with pytest.raises(ValueError, match="degenerate"):
        ScanGrid(240.0, -30.0, 3, 3, 1e-14, 100.0)
    with pytest.raises(ValueError, match="degenerate"):
        ScanGrid(-30.0, 240.0, 3, 3, 100.0, 1e-14)
    # the same spacing clears the tolerance at a corner that resolves it
    ScanGrid(0.0, 0.0, 3, 3, 1e-14, 100.0)


def test_coordinates_match_grid_points_bit_for_bit(geom):
    # spacings that are not binary fractions round differently per point
    grid = ScanGrid(240.1, -30.7, 7, 5, 0.3, 0.7, safe_z=60.0)
    scene = TargetScene(make_plate(180.0, -29.0, 220.0, 160.0, 25.0), floor_mode="skip")
    points = run_scan(grid, geom, scene, NoiseModel(sigma_contact=0.02, seed=1)).points
    q = points.coordinates()
    assert q.shape == (5, 7, 3)
    for i, k in grid.probe_order():
        assert q[k, i, :2].tobytes() == np.array(grid.point(i, k)).tobytes()
    no_height = np.isin(points.kinds, [CONTACT_NONE, CONTACT_UNREACHABLE]).T
    assert 0 < no_height.sum() < grid.point_count
    assert np.array_equal(np.isnan(q[..., 2]), no_height)
    assert q[..., 2][~no_height].tobytes() == points.z_measured.T[~no_height].tobytes()


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
        (i, k): np.array([*grid.point(i, k), result.points.z_measured[i, k]])
        for i, k in grid.probe_order()
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
            [None if holes[i, k] else (*grid.point(i, k), heights[i, k])
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
    wing = make_wing(220.0, -70.0, span=150.0, chord=140.0)
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
