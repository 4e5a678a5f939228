import math
import os
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from armscan import cli
from armscan.meshio import (
    STL_RECORD,
    FormatError,
    PointCloud,
    TriangleMesh,
    load_stl,
    read_stl,
    read_xyz,
    save_stl,
    save_xyz,
    write_atomic,
    write_stl_binary,
    write_xyz,
)
from armscan.motion import JointTrace
from armscan.objects import make_wing

from conftest import write_stl_ascii


def random_mesh(rng, count):
    """Mesh with exactly float32-representable coordinates."""
    verts = rng.uniform(-500.0, 500.0, (count, 3, 3)).astype(np.float32)
    return TriangleMesh.from_vertices(verts.astype(float))


# ------------------------------------------------------------------ triangle


def test_triangle_normal_right_hand_rule():
    mesh = TriangleMesh.from_vertices([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert np.allclose(mesh.normals[0], [0, 0, 1])
    assert np.allclose(np.linalg.norm(mesh.normals[0]), 1.0)


def test_triangle_rejects_collinear_vertices():
    with pytest.raises(ValueError, match="degenerate triangle"):
        TriangleMesh.from_vertices([[0, 0, 0], [1, 1, 1], [2, 2, 2]])
    with pytest.raises(ValueError, match="degenerate triangle"):
        TriangleMesh.from_vertices([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    # one bad facet among good ones still fails the whole batch
    with pytest.raises(ValueError, match="degenerate triangle"):
        TriangleMesh.from_vertices(
            [[[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 0, 0], [1, 1, 1], [2, 2, 2]]]
        )


@pytest.mark.parametrize(
    "width, vertex",
    # edges past about 1e77 mm overflow the squared norm; past about 1e154
    # the cross product itself does, and a NaN vertex has no norm at all
    [(1e140, None), (1e160, None), (10.0, math.nan)],
    ids=["norm-overflows", "cross-overflows", "nan-vertex"],
)
def test_triangle_rejects_a_non_finite_normal(width, vertex):
    # the two facets of make_plate(0, 0, width, width, 1)
    a, b, c, d = [0.0, 0.0, 1.0], [width, 0.0, 1.0], [width, width, 1.0], [0.0, width, 1.0]
    verts = np.array([[a, b, c], [a, c, d]])
    if vertex is not None:
        verts[1, 2, 0] = vertex
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite normal"):
            TriangleMesh.from_vertices(verts)


def test_triangle_flip_reverses_normal_and_winding():
    t = TriangleMesh.from_vertices([[0, 0, 0], [2, 0, 0], [0, 2, 0]])
    # the flip triangulate applies: swap the last two vertices, negate normals
    f = TriangleMesh(t.vertices[:, [0, 2, 1]], -t.normals)
    assert np.allclose(f.normals, -t.normals)
    assert np.allclose(f.vertices[0, 1], t.vertices[0, 2])
    recomputed = TriangleMesh.from_vertices(f.vertices)
    assert np.allclose(recomputed.normals, f.normals)


def test_mesh_normals_match_per_facet_reference(rng):
    verts = rng.uniform(-500.0, 500.0, (40, 3, 3))
    mesh = TriangleMesh.from_vertices(verts)
    for v, normal in zip(verts, mesh.normals):
        cross = np.cross(v[1] - v[0], v[2] - v[0])
        assert np.allclose(normal, cross / np.linalg.norm(cross), rtol=0, atol=1e-15)


# ------------------------------------------------------------------ binary


def test_empty_mesh_is_84_bytes():
    data = write_stl_binary(TriangleMesh())
    assert len(data) == 84
    assert struct.unpack_from("<I", data, 80)[0] == 0


def test_file_size_law(rng):
    for count in (1, 7, 33):
        data = write_stl_binary(random_mesh(rng, count))
        assert len(data) == 84 + 50 * count


def test_binary_round_trip_bit_exact(rng):
    for count in (1, 5, 40):
        mesh = random_mesh(rng, count)
        first = write_stl_binary(mesh)
        second = write_stl_binary(read_stl(first))
        assert first == second


def test_write_narrows_to_float32(rng):
    v1 = [0.1, 0.2, 0.3]  # not float32-representable
    mesh = TriangleMesh.from_vertices([v1, [1, 0, 0], [0, 1, 0]])
    back = read_stl(write_stl_binary(mesh))
    assert back.vertices[0, 0, 0] == np.float32(0.1)
    # float(): a float32 compared with a Python float is compared in float32
    assert float(back.vertices[0, 0, 0]) != 0.1


def test_load_stl_peak_memory_on_the_fine_wing(tmp_path):
    # the file's bytes and contiguous float32 copies of the vertices and
    # normals, 96% of them: no float64 widening and no temporaries for
    # the finite check (about 3.1 times the file's bytes when those were
    # made)
    path = tmp_path / "fine.stl"
    save_stl(make_wing(220.0, -70.0, n_span=121, n_chord=161), path)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mesh = load_stl(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(mesh) == 38_400
    assert peak <= 2 * path.stat().st_size
    assert mesh.vertices.dtype == mesh.normals.dtype == np.float32


def test_binary_truncated_raises():
    data = write_stl_binary(TriangleMesh())
    with pytest.raises(FormatError, match="84-byte"):
        read_stl(data[:50])


def test_binary_count_mismatch_raises(rng):
    data = bytearray(write_stl_binary(random_mesh(rng, 3)))
    struct.pack_into("<I", data, 80, 7)
    with pytest.raises(FormatError, match="size mismatch"):
        read_stl(bytes(data))


def test_binary_header_starting_with_solid_still_binary(rng):
    mesh = random_mesh(rng, 2)
    data = bytearray(write_stl_binary(mesh))
    data[:5] = b"solid"
    back = read_stl(bytes(data))
    assert len(back) == 2


@pytest.mark.parametrize(
    "field, value",
    [("vertices", np.nan), ("vertices", -np.inf), ("normal", np.inf)],
)
def test_binary_non_finite_facet_named(rng, field, value):
    data = bytearray(write_stl_binary(random_mesh(rng, 5)))
    records = np.frombuffer(data, dtype=STL_RECORD, offset=84)
    records[field][2].flat[1] = value
    records[field][4].flat[0] = value
    with pytest.raises(FormatError, match="byte 184: facet 3 has a non-finite"):
        read_stl(bytes(data))


# ------------------------------------------------------------------ ascii


def test_ascii_single_facet():
    text = """
    solid example
      facet normal 0.0 0.0 1.0
        outer loop
          vertex 0 0 7
          vertex 1.5E+00 0 7
          vertex 0 2e0 7
        endloop
      endfacet
    endsolid example
    """
    mesh = read_stl(text.encode())
    assert len(mesh) == 1
    assert np.allclose(mesh.normals[0], [0, 0, 1])
    assert np.allclose(mesh.vertices[0, 1], [1.5, 0, 7])


def test_ascii_unit_cube_from_another_tool():
    # assembled the way mesh exporters commonly print it, not via our writer
    faces = []
    quads = [
        ([0, 0, 0], [0, 1, 0], [1, 1, 0], [1, 0, 0], [0, 0, -1]),
        ([0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1], [0, 0, 1]),
        ([0, 0, 0], [1, 0, 0], [1, 0, 1], [0, 0, 1], [0, -1, 0]),
        ([1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1], [1, 0, 0]),
        ([1, 1, 0], [0, 1, 0], [0, 1, 1], [1, 1, 1], [0, 1, 0]),
        ([0, 1, 0], [0, 0, 0], [0, 0, 1], [0, 1, 1], [-1, 0, 0]),
    ]
    for a, b, c, d, n in quads:
        for tri in ((a, b, c), (a, c, d)):
            lines = ["facet normal %d %d %d" % tuple(n), " outer loop"]
            lines += ["  vertex %d %d %d" % tuple(v) for v in tri]
            lines += [" endloop", "endfacet"]
            faces.append("\n".join(lines))
    text = "solid cube\n" + "\n".join(faces) + "\nendsolid cube\n"
    mesh = read_stl(text.encode())
    assert len(mesh) == 12
    verts = mesh.vertices.reshape(-1, 3)
    assert np.allclose(verts.min(axis=0), [0, 0, 0])
    assert np.allclose(verts.max(axis=0), [1, 1, 1])


def test_ascii_writer_output_parses_back(rng):
    mesh = random_mesh(rng, 4)
    back = read_stl(write_stl_ascii(mesh).encode())
    assert len(back) == 4
    assert np.allclose(back.vertices, mesh.vertices, atol=1e-5)
    assert np.allclose(back.normals, mesh.normals, atol=1e-5)


def test_ascii_malformed_token_reports_line():
    text = "solid x\nfacet normal 0 0 1\nouter loop\nvertex 0 0 oops\n"
    with pytest.raises(FormatError, match="line 4"):
        read_stl(text.encode())


def test_ascii_missing_endsolid_raises():
    text = "solid x\nfacet normal 0 0 1\nouter loop\nvertex 0 0 0\nvertex 1 0 0\nvertex 0 1 0\nendloop\nendfacet\n"
    with pytest.raises(FormatError, match="endsolid"):
        read_stl(text.encode())


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
def test_ascii_non_finite_facet_named(rng, token):
    lines = write_stl_ascii(random_mesh(rng, 3)).splitlines()
    lines[11] = f"      vertex 1 {token} 2"  # line 12, in facet 2 from line 9
    with pytest.raises(FormatError, match="line 9: facet 2 has a non-finite"):
        read_stl("\n".join(lines).encode())


FACET = (
    "solid x\nfacet normal 0 0 1\nouter loop\n"
    "vertex 0 0 0\nvertex 1 0 0\nvertex 0 1 0\nendloop\nendfacet\nendsolid x\n"
)


@pytest.mark.parametrize(
    "text, expected",
    [
        (FACET.replace("normal 0 0 1", "normal 0 0"),
         "line 2: expected 3 numbers after 'facet normal', got 2"),
        (FACET.replace("facet normal", "facet"),
         "line 2: expected 'facet normal', got 'facet 0 0 1'"),
        (FACET.replace("outer loop\n", ""),
         "line 3: expected 'outer loop', got 'vertex 0 0 0'"),
        (FACET.replace("vertex 1 0 0", "vertex 1 0 oops"),
         "line 5: could not convert string to float: 'oops'"),
        (FACET.replace("vertex 1 0 0", "vertex 1 0"),
         "line 5: expected 3 numbers after 'vertex', got 2"),
        (FACET.replace("endloop", "vertex 1 1 0\nendloop"),
         "line 7: expected 'endloop', got 'vertex 1 1 0'"),
        (FACET.replace("endfacet\n", ""),
         "line 8: expected 'endfacet', got 'endsolid x'"),
        (FACET.split("vertex 0 1 0")[0], "line 5: expected 'vertex', got None"),
        (FACET.replace("endsolid x\n", ""),
         "line 8: unterminated solid, missing 'endsolid'"),
        (FACET.replace("vertex 1 0 0", "vertex 1 nan 0"),
         "line 2: facet 1 has a non-finite coordinate"),
        ("\n \n" + FACET.replace("\n", "\n\t \n\n"), 1),
    ],
    ids=[
        "normal-2-numbers", "facet-without-normal", "missing-outer-loop",
        "vertex-oops", "vertex-2-numbers", "fourth-vertex", "missing-endfacet",
        "ends-inside-facet", "missing-endsolid", "nan-vertex", "blank-lines",
    ],
)
def test_ascii_messages_and_counts(text, expected):
    if isinstance(expected, int):
        assert len(read_stl(text.encode())) == expected
    else:
        with pytest.raises(FormatError) as info:
            read_stl(text.encode())
        assert str(info.value) == expected


@pytest.mark.parametrize(
    "data, facets",
    [
        ((FACET + FACET.replace(" x", " y")).encode(), 2),
        (b"solid part exported by facet-tool".ljust(80) + bytes(4), 0),
        (b"solid x\nendsolid x\n", 0),
        (FACET.replace("outer loop", "outer  loop").encode(), 1),
    ],
    ids=["two-solids", "binary-solid-facet-header", "ascii-no-facets", "outer-2-spaces"],
)
def test_stl_flavour_by_length_and_every_solid_read(data, facets):
    assert len(read_stl(data)) == facets


@pytest.mark.parametrize(
    "text, message",
    [
        (FACET + "\n junk after\n", "line 11: expected 'solid', got 'junk after'"),
        (FACET.replace("endloop", "endloop x"),
         "line 7: expected 0 numbers after 'endloop', got 1"),
    ],
    ids=["text-after-endsolid", "endloop-with-number"],
)
def test_ascii_stray_text_raises(text, message):
    with pytest.raises(FormatError) as info:
        read_stl(text.encode())
    assert str(info.value) == message


def facet_rows(numbers, max_size):
    """Lists of 12 numbers per facet: a normal, then three vertices."""
    return st.lists(st.lists(numbers, min_size=12, max_size=12), max_size=max_size)


def mesh_of(rows):
    rows = np.array(rows, dtype=float).reshape(-1, 12)
    return TriangleMesh(rows[:, 3:], rows[:, :3])


TEXT_HEADERS = st.builds(
    lambda pad, words: f"{pad}solid {words} facet".encode().ljust(80),
    st.sampled_from(["", "  ", "\n"]),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=60),
)


@settings(max_examples=100, deadline=None)
@given(
    header=st.binary(min_size=80, max_size=80) | TEXT_HEADERS,
    rows=facet_rows(st.floats(width=32, allow_nan=False, allow_infinity=False), 5),
)
def test_binary_with_any_header_reads_back(header, rows):
    mesh = mesh_of(rows)
    data = header + write_stl_binary(mesh)[80:]
    back = read_stl(data)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.normals, mesh.normals)


@settings(max_examples=60, deadline=None)
@given(solids=st.lists(facet_rows(st.integers(-1000, 1000), 4), min_size=1, max_size=3))
def test_ascii_solids_read_back_in_order(solids):
    text = "".join(
        write_stl_ascii(mesh_of(rows), name=f"part{i}") for i, rows in enumerate(solids)
    )
    back = read_stl(text.encode())
    whole = mesh_of([row for rows in solids for row in rows])
    assert np.array_equal(back.vertices, whole.vertices)
    assert np.array_equal(back.normals, whole.normals)


# ------------------------------------------------------------------ xyz


def test_xyz_empty_cloud_empty_file():
    assert write_xyz(PointCloud()) == ""
    assert len(read_xyz("")) == 0


def test_xyz_round_trip_500_points(rng):
    cloud = PointCloud(rng.uniform(-400, 400, (500, 3)))
    text = write_xyz(cloud)
    assert len(text.splitlines()) == 500
    back = read_xyz(text)
    assert np.abs(back.points - cloud.points).max() < 1e-6


@pytest.mark.parametrize(
    "points",
    [
        [[-0.0, 0.0, -1e-9], [-4e-7, 5e-7, 0.5e-6]],
        [[1e300, -1.5e15, 123456789.0000005], [np.pi, -np.e, 2.5e-7]],
        np.zeros((0, 3)),
    ],
)
def test_xyz_writer_matches_per_row_format(points):
    cloud = PointCloud(points)
    expected = "".join("{:.6f} {:.6f} {:.6f}\n".format(*row) for row in cloud.points)
    assert write_xyz(cloud) == expected


def test_xyz_tolerates_extra_whitespace():
    cloud = read_xyz("  1.0\t2.0   3.0  \n\n   4 5 6\n")
    assert np.allclose(cloud.points, [[1, 2, 3], [4, 5, 6]])


def test_xyz_malformed_line_numbered():
    with pytest.raises(FormatError, match="line 2"):
        read_xyz("1 2 3\n4 5\n")
    with pytest.raises(FormatError, match="line 3"):
        read_xyz("1 2 3\n4 5 6\n7 eight 9\n")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_xyz_non_finite_coordinate_numbered(token):
    with pytest.raises(FormatError, match="line 3: non-finite coordinate"):
        read_xyz(f"1 2 3\n\n4 {token} 6\n")


# ------------------------------------------------------------------ writes


@pytest.mark.parametrize(
    "write",
    [
        lambda path: save_stl(TriangleMesh.from_vertices([[0, 0, 0], [1, 0, 0], [0, 1, 0]]), path),
        lambda path: save_xyz(PointCloud([[1.0, 2.0, 3.0]]), path),
        lambda path: cli._write_text(path, "# report\n"),
        lambda path: cli._write_text(path, JointTrace(np.ones((3, 6))).csv_blocks()),
    ],
    ids=["stl", "xyz", "text", "trace"],
)
def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch, write):
    target = tmp_path / "artifact"
    target.write_bytes(b"old contents\n")

    def fail(src, dst):
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write(target)
    assert target.read_bytes() == b"old contents\n"
    assert os.listdir(tmp_path) == ["artifact"]

    write(target)
    assert target.read_bytes() != b"old contents\n"
    assert os.listdir(tmp_path) == ["artifact"]


def test_chunk_source_failing_part_way_keeps_old_file(tmp_path):
    target = tmp_path / "trace.csv"
    target.write_bytes(b"old contents\n")
    first = b"x" * 100_000  # past the file's buffer, so written at once

    def chunks():
        yield first
        (temp,) = [p for p in tmp_path.iterdir() if p != target]
        assert temp.name.startswith(".trace.csv.") and temp.stat().st_size == len(first)
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        write_atomic(target, chunks())
    assert target.read_bytes() == b"old contents\n"
    assert os.listdir(tmp_path) == ["trace.csv"]


def test_unencodable_report_keeps_old_file(tmp_path):
    target = tmp_path / "report.txt"
    target.write_text("old report\n")
    with pytest.raises(UnicodeEncodeError):
        cli._write_text(target, "lone surrogate \ud800\n")
    assert target.read_text() == "old report\n"
    assert os.listdir(tmp_path) == ["report.txt"]
