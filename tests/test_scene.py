import numpy as np
import pytest

from armscan.meshio import TriangleMesh
from armscan.scene import (
    CONTACT_MESH,
    CONTACT_NONE,
    CONTACT_TABLE,
    ContactResult,
    NoiseModel,
    TargetScene,
    probe_contact,
    raycast_down,
)

from oracles import raycast_brute


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


def test_scene_rejects_non_finite():
    bad = TriangleMesh([[0, 0, np.nan], [1, 0, 5], [0, 1, 5]], [0, 0, 1])
    mesh = joined(plane_patch(1.0), bad)
    with pytest.raises(ValueError, match="non-finite"):
        TargetScene(mesh)


# ------------------------------------------------------------------ noise


def test_noise_off_is_identity():
    noise = NoiseModel()
    assert noise.error_at(0) == 0.0
    assert noise.error_at(999) == 0.0


def test_noise_drift_alone_is_linear():
    noise = NoiseModel(sigma_contact=0.0, drift_per_contact=0.001)
    assert noise.error_at(500) == pytest.approx(0.5)
    assert noise.error_at(0) == 0.0


def test_noise_sample_std(rng):
    noise = NoiseModel(sigma_contact=0.02, seed=42)
    errs = np.array([noise.error_at(i) for i in range(10000)])
    assert errs.std() == pytest.approx(0.02, rel=0.05)
    assert abs(errs.mean()) < 0.001


def test_noise_keyed_determinism():
    a = NoiseModel(sigma_contact=0.1, seed=7)
    b = NoiseModel(sigma_contact=0.1, seed=7)
    assert [a.error_at(i) for i in range(20)] == [b.error_at(i) for i in range(20)]
    c = NoiseModel(sigma_contact=0.1, seed=8)
    assert a.error_at(3) != c.error_at(3)


def test_noise_rejects_negative_sigma():
    with pytest.raises(ValueError):
        NoiseModel(sigma_contact=-0.1)


# ------------------------------------------------------------------ probing


def test_probe_hits_plate():
    scene = TargetScene(plane_patch(25.0))
    r = probe_contact(3.0, 4.0, 0, scene, NoiseModel())
    assert r.kind == CONTACT_MESH
    assert r.z_true == 25.0
    assert r.z_measured == 25.0
    assert np.allclose(r.point(), [3.0, 4.0, 25.0])


def test_probe_miss_table_mode():
    scene = TargetScene(plane_patch(25.0), table_z=0.0, floor_mode="table")
    r = probe_contact(50.0, 50.0, 0, scene, NoiseModel())
    assert r.kind == CONTACT_TABLE
    assert r.z_true == 0.0


def test_probe_miss_skip_mode():
    scene = TargetScene(plane_patch(25.0), floor_mode="skip")
    r = probe_contact(50.0, 50.0, 0, scene, NoiseModel())
    assert r.kind == CONTACT_NONE
    assert r.z_measured is None
    with pytest.raises(ValueError):
        r.point()


def test_probe_applies_noise_exactly():
    scene = TargetScene(plane_patch(25.0))
    noise = NoiseModel(sigma_contact=0.05, drift_per_contact=0.002, seed=11)
    r = probe_contact(2.0, 2.0, 37, scene, noise)
    assert r.z_measured == r.z_true + noise.error_at(37)


def test_contact_result_touched():
    assert ContactResult(0, 0, 1.0, 1.0, CONTACT_MESH).touched
    assert ContactResult(0, 0, 0.0, 0.0, CONTACT_TABLE).touched
    assert not ContactResult(0, 0, kind=CONTACT_NONE).touched
