import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from armscan import scene as scene_module
from armscan.meshio import TriangleMesh, read_stl, write_stl_binary
from armscan.objects import make_plate, make_wing
from armscan.scanner import MAX_GRID_POINTS, ScanGrid
from armscan.scene import (
    CONTACT_MESH,
    CONTACT_NONE,
    CONTACT_TABLE,
    MAX_COORDINATE,
    NoiseModel,
    TargetScene,
    probe_contact,
    raycast_down,
)

from oracles import noise_reference, raycast_all_facets, raycast_brute


def soup(rng, count, span=100.0, zmax=50.0):
    """Random triangle soup above the table plane."""
    tris = []
    while len(tris) < count:
        v = np.column_stack(
            [rng.uniform(0, span, (3, 2)), rng.uniform(0, zmax, 3)[:, None]]
        )
        try:
            TriangleMesh.from_vertices(v)
        except ValueError:
            continue
        tris.append(v)
    return TriangleMesh.from_vertices(tris)


def facets(tris):
    """A mesh of the given vertex triples, degenerate ones included."""
    tris = np.asarray(tris, dtype=float).reshape(-1, 3, 3)
    return TriangleMesh(tris, np.tile([0.0, 0.0, 1.0], (len(tris), 1)))


def sized_soup(rng, count, size, span=100.0, zmax=50.0):
    """`count` random facets, each within a `size` mm square, over the span."""
    corner = rng.uniform(-size / 2, span - size / 2, (count, 1, 2))
    xy = corner + rng.uniform(0, size, (count, 3, 2))
    return facets(np.concatenate([xy, rng.uniform(0, zmax, (count, 3, 1))], axis=2))


def plane_patch(z, size=10.0):
    return TriangleMesh.from_vertices(
        [
            [[0, 0, z], [size, 0, z], [0, size, z]],
            [[size, 0, z], [size, size, z], [0, size, z]],
        ]
    )


def joined(*meshes):
    return TriangleMesh(
        np.concatenate([m.vertices for m in meshes]),
        np.concatenate([m.normals for m in meshes]),
    )


# ------------------------------------------------------------------ raycast


def test_raycast_planar_hit():
    scene = TargetScene(
        TriangleMesh.from_vertices([[0, 0, 7], [1, 0, 7], [0, 1, 7]])
    )
    assert raycast_down(0.25, 0.25, scene) == 7.0


def test_raycast_miss_returns_none():
    scene = TargetScene(plane_patch(5.0))
    assert raycast_down(20.0, 20.0, scene) is None
    assert raycast_down(-0.5, 3.0, scene) is None


def test_raycast_edge_and_vertex_grazes_hit():
    scene = TargetScene(
        TriangleMesh.from_vertices([[0, 0, 3], [4, 0, 3], [0, 4, 3]])
    )
    assert raycast_down(0.0, 0.0, scene) == 3.0  # vertex
    assert raycast_down(2.0, 0.0, scene) == 3.0  # edge
    assert raycast_down(2.0, 2.0, scene) == 3.0  # hypotenuse


def test_raycast_horizontal_plane_is_exact(rng):
    scene = TargetScene(plane_patch(12.345678901234))
    for _ in range(100):
        x, y = rng.uniform(0.01, 9.99, 2)
        if x + y > 9.99:
            continue
        assert raycast_down(x, y, scene) == 12.345678901234


def test_raycast_overlapping_takes_max():
    mesh = joined(plane_patch(2.0), plane_patch(9.0))
    assert raycast_down(3.0, 3.0, TargetScene(mesh)) == 9.0


def test_raycast_matches_brute_oracle(rng):
    mesh = soup(rng, 60)
    scene = TargetScene(mesh)
    tris = mesh.vertices
    for _ in range(2000):
        x, y = rng.uniform(-10, 110, 2)
        fast = raycast_down(x, y, scene)
        slow = raycast_brute(x, y, tris)
        if slow is None:
            assert fast is None
        else:
            assert fast is not None
            assert abs(fast - slow) < 1e-9


def cell_borders(start, end, size, count):
    """Up to 42 cell borders of one axis of the scene's facet index, its
    extent's ends among them, then the same one ulp lower, one ulp higher."""
    exact = [start, end]
    if count > 1:
        exact += [start + j * size for j in np.unique(np.linspace(0, count, 40).astype(int))]
    exact = np.array(exact)
    return exact, np.concatenate([np.nextafter(exact, -np.inf), np.nextafter(exact, np.inf)])


def probe_points(rng, mesh, scene, every_vertex, randoms=400):
    """Rays worth checking against the full mask: random points over and
    around the mesh; its vertices and edge midpoints (`randoms` of each
    unless `every_vertex`); points on, and one ulp either side of, the
    index's cell borders and the ends of the mesh's xy extent, which
    puts some just outside it; the crossings of those borders; and NaN
    and infinite coordinates, which are misses."""
    tris = mesh.vertices[:, :, :2]
    corners = np.unique(tris.reshape(-1, 2), axis=0)
    midpoints = np.unique((tris + tris[:, [1, 2, 0]]).reshape(-1, 2) / 2.0, axis=0)
    if not every_vertex:
        corners = rng.permutation(corners)[:randoms]
        midpoints = rng.permutation(midpoints)[:randoms]
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    pad = 0.1 * (hi - lo) + 1.0
    points = [rng.uniform(lo - pad, hi + pad, (randoms, 2)), corners, midpoints]
    x0, x1, *x_cells = scene._grid[:4]
    y0, y1, *y_cells = scene._grid[4:]
    bx, near_bx = cell_borders(x0, x1, *x_cells)
    by, near_by = cell_borders(y0, y1, *y_cells)
    for xs in (bx, near_bx):
        points.append(np.column_stack([xs, rng.uniform(y0, y1, len(xs))]))
    for ys in (by, near_by):
        points.append(np.column_stack([rng.uniform(x0, x1, len(ys)), ys]))
    points.append(np.stack(np.meshgrid(bx, by), axis=-1).reshape(-1, 2))
    odd = [math.nan, math.inf, -math.inf, (x0 + x1) / 2]
    points.append([(x, y) for x in odd for y in odd[:3] + [(y0 + y1) / 2]])
    return np.concatenate(points).tolist()


def _soup_with_sliver(rng):
    soup = sized_soup(rng, 500, 3.0)
    sliver = facets([[[-400, 50, 1], [600, 50.5, 20], [600, 49.5, 20]]])
    return joined(soup, sliver)


RAYCAST_CASES = {
    "soup-10-large": lambda rng: sized_soup(rng, 10, 100.0),
    "soup-300-large": lambda rng: sized_soup(rng, 300, 60.0),
    "soup-1000-small": lambda rng: sized_soup(rng, 1000, 2.0),
    "soup-5000-small": lambda rng: sized_soup(rng, 5000, 1.0),
    "soup-2000-mixed": lambda rng: joined(sized_soup(rng, 100, 80.0), sized_soup(rng, 1900, 3.0)),
    "soup-with-degenerate": lambda rng: joined(
        sized_soup(rng, 200, 5.0),
        facets([[[x, x, 0], [x + 1, x + 1, 9], [x + 2, x + 2, 9]] for x in range(0, 90, 3)]),
    ),
    "soup-plus-1000mm-sliver": _soup_with_sliver,
    "two-plates-far-apart": lambda rng: joined(
        make_plate(0.0, 0.0, 10.0, 10.0, 3.0), make_plate(9000.0, 7000.0, 10.0, 10.0, 5.0)
    ),
    "wing": lambda rng: make_wing(220.0, -70.0),
}


@pytest.mark.parametrize("case", sorted(RAYCAST_CASES))
def test_raycast_equals_full_mask(case, rng):
    """The indexed raycast gives, bit for bit, what masking every facet
    gives, on every ray, and raises nothing."""
    mesh = RAYCAST_CASES[case](rng)
    scene = TargetScene(mesh)
    points = probe_points(rng, mesh, scene, every_vertex=case == "wing")
    expected = raycast_all_facets(mesh.vertices, points)
    got = [raycast_down(x, y, scene) for x, y in points]
    wrong = [(p, g, e) for p, g, e in zip(points, got, expected) if g != e]
    assert not wrong, f"{len(wrong)} of {len(points)} rays differ, first {wrong[:3]}"
    assert any(e is not None for e in expected)


STRIDED_VIEWS = {
    "facets-reversed": lambda v: v[::-1],
    "vertices-reversed": lambda v: v[::-1, ::-1],
    # the same values, read back to front: its flat view needs no copy
    "reversed-in-memory": lambda v: np.ascontiguousarray(v[::-1, ::-1, ::-1])[::-1, ::-1, ::-1],
    "every-other-facet": lambda v: np.repeat(v, 2, axis=0)[::2],
    "fortran-order": np.asfortranarray,
}


@pytest.mark.parametrize("view", sorted(STRIDED_VIEWS))
def test_raycast_over_strided_vertices_equals_full_mask(view, rng):
    """A mesh whose vertices are a strided view of another array is
    walked through the same flat vertex order as a contiguous copy."""
    base = sized_soup(rng, 400, 4.0)
    mesh = TriangleMesh(STRIDED_VIEWS[view](base.vertices), base.normals)
    assert not mesh.vertices.flags.c_contiguous
    scene = TargetScene(mesh)
    points = probe_points(rng, mesh, scene, every_vertex=True)
    expected = raycast_all_facets(mesh.vertices, points)
    got = [raycast_down(x, y, scene) for x, y in points]
    assert got == expected
    assert any(e is not None for e in expected)


def test_scene_of_a_loaded_mesh_reads_its_vertices_in_place():
    mesh = read_stl(write_stl_binary(make_wing(220.0, -70.0)))
    flat = np.asarray(TargetScene(mesh)._walk[-1])
    assert np.shares_memory(flat, mesh.vertices)
    assert flat.tolist() == mesh.vertices.reshape(-1).tolist()


@pytest.mark.parametrize(
    "mesh_args, grid",
    [
        # wing-dense: every ray hits
        (dict(), ScanGrid(220.0, -70.0, 26, 24, 6.0, 6.0)),
        # wing-fine-lowz: one row and one column overhang, 24 misses
        (dict(n_span=121, n_chord=161), ScanGrid(214.0, -76.0, 13, 12, 12.0, 12.0)),
    ],
    ids=["wing-dense", "wing-fine-lowz"],
)
def test_raycast_of_the_benchmark_lattices_equals_full_mask(mesh_args, grid):
    mesh = make_wing(220.0, -70.0, **mesh_args)
    scene = TargetScene(mesh)
    xs, ys = (axis.tolist() for axis in grid.axes())
    points = [(x, y) for y in ys for x in xs]
    expected = raycast_all_facets(mesh.vertices, points)
    assert [raycast_down(x, y, scene) for x, y in points] == expected
    assert expected.count(None) == (24 if mesh_args else 0)


def test_raycast_monotone_under_added_triangles(rng):
    base = soup(rng, 30)
    more = joined(base, soup(rng, 30))
    s1, s2 = TargetScene(base), TargetScene(more)
    for _ in range(300):
        x, y = rng.uniform(0, 100, 2)
        z1 = raycast_down(x, y, s1)
        z2 = raycast_down(x, y, s2)
        if z1 is not None:
            assert z2 is not None and z2 >= z1


def test_raycast_skips_degenerate_triangles():
    # vertical sliver: zero projected area, must never be hit
    sliver = TriangleMesh([[2, 2, 0], [2, 2, 9], [2, 2.0000000000001, 9]], [1, 0, 0])
    mesh = joined(plane_patch(1.0), sliver)
    assert raycast_down(2.0, 2.0, TargetScene(mesh)) == 1.0


# ------------------------------------------------------------------ scene


def test_scene_rejects_empty_mesh():
    with pytest.raises(ValueError, match="empty"):
        TargetScene(TriangleMesh())


def test_scene_rejects_mesh_below_table():
    mesh = plane_patch(-2.0)
    with pytest.raises(ValueError, match="below the table"):
        TargetScene(mesh, table_z=0.0)
    TargetScene(mesh, table_z=-2.0)  # fine when the table is lowered


def test_scene_rejects_bad_floor_mode():
    with pytest.raises(ValueError, match="floor_mode"):
        TargetScene(plane_patch(1.0), floor_mode="bounce")


@pytest.mark.parametrize("table_z", [math.nan, math.inf, -math.inf])
def test_scene_rejects_non_finite_table(table_z):
    # a NaN table used to build, then crash a table-mode miss mid-scan
    with pytest.raises(ValueError, match=f"table_z must be finite, got {table_z}"):
        TargetScene(plane_patch(1.0), table_z=table_z)


def test_scene_rejects_non_finite():
    bad = TriangleMesh([[0, 0, np.nan], [1, 0, 5], [0, 1, 5]], [0, 0, 1])
    mesh = joined(plane_patch(1.0), bad)
    with pytest.raises(ValueError, match="non-finite"):
        TargetScene(mesh)


def square_plate(half, z=10.0):
    """Two facets at height z over the square of corners (+-half, +-half)."""
    return facets(
        [
            [[-half, -half, z], [half, -half, z], [-half, half, z]],
            [[half, -half, z], [half, half, z], [-half, half, z]],
        ]
    )


@settings(max_examples=200, deadline=None)
@given(
    magnitude=st.floats(0.0, 300.0).map(lambda exponent: 10.0**exponent),
    fx=st.floats(-0.99, 0.99),
    fy=st.floats(-0.99, 0.99),
)
# at the bound, just past it, where a plate's hit test used to overflow
# (about 6.7e153) and the plate of the scan repro
@example(magnitude=MAX_COORDINATE, fx=0.5, fy=-0.5)
@example(magnitude=math.nextafter(MAX_COORDINATE, math.inf), fx=0.5, fy=-0.5)
@example(magnitude=1e154, fx=0.5, fy=-0.5)
@example(magnitude=1e200, fx=0.0, fy=0.0)
def test_scene_rejects_what_its_raycast_would_overflow(magnitude, fx, fy):
    # a scene either refuses the plate or finds it under every ray, as
    # the test of every facet does; the raycast's products once
    # overflowed past about 6.7e153 and missed every facet
    mesh = square_plate(magnitude)
    if magnitude > MAX_COORDINATE:
        with pytest.raises(ValueError, match=r"or ones past 1e\+153 mm"):
            TargetScene(mesh)
        return
    x, y = fx * magnitude, fy * magnitude
    scene = TargetScene(mesh)
    assert raycast_down(x, y, scene) == raycast_all_facets(mesh.vertices, [(x, y)])[0] == 10.0


# ------------------------------------------------------------------ noise


def test_noise_off_is_identity():
    for noise in (NoiseModel(), NoiseModel(drift_per_contact=-0.0)):
        for index in (0, 999):
            err = noise.error_at(index)
            assert err == 0.0
            # +0.0: z + (-0.0) would keep a z of -0.0 negative and change its bytes
            assert math.copysign(1.0, err) == 1.0


def test_noise_drift_alone_is_linear():
    noise = NoiseModel(sigma_contact=0.0, drift_per_contact=0.001)
    assert noise.error_at(500) == pytest.approx(0.5)
    assert noise.error_at(0) == 0.0


def test_noise_sample_std(rng):
    noise = NoiseModel(sigma_contact=0.02, seed=42)
    errs = noise.errors(range(10000))
    assert errs.std() == pytest.approx(0.02, rel=0.05)
    assert abs(errs.mean()) < 0.001


def test_noise_keyed_determinism():
    a = NoiseModel(sigma_contact=0.1, seed=7)
    b = NoiseModel(sigma_contact=0.1, seed=7)
    assert [a.error_at(i) for i in range(20)] == [b.error_at(i) for i in range(20)]
    c = NoiseModel(sigma_contact=0.1, seed=8)
    assert a.error_at(3) != c.error_at(3)


# Seeds of one to seven entropy words: past 2^64, seed and ordinal take
# more than SeedSequence's four pool words, and a zero word no longer
# hashes like a missing one.
SEEDS = (
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64, 2**200])
    | st.integers(0, 2**16).map(lambda k: 2**64 + k)
    | st.integers(0, 2**70)
)
# 2^32 - 1 and 2^32 straddle the ordinal's second word
ORDINALS = st.lists(
    st.sampled_from([0, 2**32 - 1, 2**32, MAX_GRID_POINTS - 1]) | st.integers(0, 2**33),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(
    seed=SEEDS,
    ordinals=ORDINALS,
    sigma=st.sampled_from([0.0, 1e308]) | st.floats(0.0, 1e308),
    drift=st.sampled_from([0.0, -0.0, 1e308, -1e308]) | st.floats(-1e308, 1e308),
)
# the Gaussian and drift terms overflow to opposite infinities at 78
@example(seed=0, ordinals=[77, 78, 79], sigma=1e308, drift=-1e308)
def test_noise_batch_matches_a_generator_per_contact(seed, ordinals, sigma, drift):
    noise = NoiseModel(sigma_contact=sigma, drift_per_contact=drift, seed=seed)
    expected = np.array([noise_reference(noise, i) for i in ordinals], dtype=float)
    assert noise.errors(ordinals).tobytes() == expected.tobytes()
    assert noise.errors(tuple(ordinals)).dtype == np.float64
    for i, value in zip(ordinals, expected.tolist()):
        assert np.float64(noise.error_at(i)).tobytes() == np.float64(value).tobytes()


def test_noise_blocks_join_seamlessly(monkeypatch):
    # blocks of three across one- and two-word ordinals, out of order
    ordinals = [5, 2**32, 0, 2**32 - 1, 7, 2**32 + 9, 1, 2, 3, 2**40, 4]
    noise = NoiseModel(sigma_contact=0.5, drift_per_contact=0.25, seed=2**32 + 3)
    whole = noise.errors(ordinals)
    monkeypatch.setattr(scene_module, "NOISE_BLOCK", 3)
    assert noise.errors(ordinals).tobytes() == whole.tobytes()
    expected = [noise_reference(noise, i) for i in ordinals]
    assert whole.tobytes() == np.array(expected).tobytes()
    assert noise.errors(range(10)).tobytes() == noise.errors(list(range(10))).tobytes()
    assert noise.errors([]).shape == (0,)


def test_noise_rejects_negative_sigma():
    with pytest.raises(ValueError):
        NoiseModel(sigma_contact=-0.1)


def test_noise_rejects_negative_seed():
    # numpy refuses a negative seed only at the first draw, mid-scan
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        NoiseModel(sigma_contact=0.1, seed=-1)


# ------------------------------------------------------------------ probing


def test_probe_hits_plate():
    scene = TargetScene(plane_patch(25.0))
    kind, z_true, z_measured = probe_contact(3.0, 4.0, scene, NoiseModel().error_at(0))
    assert kind == CONTACT_MESH
    assert z_true == 25.0
    assert z_measured == 25.0


def test_probe_miss_table_mode():
    scene = TargetScene(plane_patch(25.0), table_z=0.0, floor_mode="table")
    kind, z_true, z_measured = probe_contact(50.0, 50.0, scene, NoiseModel().error_at(0))
    assert kind == CONTACT_TABLE
    assert z_true == 0.0
    assert z_measured == 0.0


def test_probe_miss_skip_mode():
    scene = TargetScene(plane_patch(25.0), floor_mode="skip")
    kind, z_true, z_measured = probe_contact(50.0, 50.0, scene, NoiseModel().error_at(0))
    assert kind == CONTACT_NONE
    assert math.isnan(z_true) and math.isnan(z_measured)


def test_probe_applies_noise_exactly():
    scene = TargetScene(plane_patch(25.0))
    noise = NoiseModel(sigma_contact=0.05, drift_per_contact=0.002, seed=11)
    _, z_true, z_measured = probe_contact(2.0, 2.0, scene, noise.error_at(37))
    assert z_measured == z_true + noise.error_at(37)


@pytest.mark.parametrize("floor_mode", ["table", "skip"])
def test_probe_heights_nan_exactly_without_contact(floor_mode):
    # a touch carries two finite heights; a skip-mode miss carries none
    scene = TargetScene(plane_patch(25.0), table_z=-2.0, floor_mode=floor_mode)
    noise = NoiseModel(sigma_contact=0.05, drift_per_contact=0.002, seed=4)
    miss = CONTACT_TABLE if floor_mode == "table" else CONTACT_NONE
    cases = [
        (3.0, 4.0, CONTACT_MESH),
        (10.0, 0.0, CONTACT_MESH),  # a vertex graze
        (50.0, 50.0, miss),
        (-1.0, 5.0, miss),
    ]
    for index, (x, y, expected) in enumerate(cases):
        kind, z_true, z_measured = probe_contact(x, y, scene, noise.error_at(index))
        assert kind == expected
        no_height = kind == CONTACT_NONE
        assert math.isnan(z_true) == math.isnan(z_measured) == no_height
