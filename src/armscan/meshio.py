"""Triangle meshes, point clouds, and their file formats.

A mesh is two arrays: `vertices`, (N, 3, 3) float64 with one row of
three vertices per facet, and `normals`, (N, 3) float64 unit normals.

Binary STL is the primary interchange format: 80-byte header, u32
triangle count, then one 50-byte record per facet (`STL_RECORD`:
float32 normal, float32 3x3 vertices, u16 attribute written as 0).
Coordinates are held as float64 in memory and narrowed to float32 on
write; that narrowing is the format's precision, not ours, and
write-read-write round trips are bit-exact.

ASCII STL is read, every solid of a file into one mesh, but never
written; a stream whose length is the 84 + 50 * count its header
declares is binary, whatever the header says.  Point clouds travel
as ASCII xyz text, one "x y z" triple per line with six fractional
digits.  Malformed data in either format raises `FormatError`.  Files
are written atomically (`write_atomic`).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

STL_HEADER_BYTES = 80
STL_RECORD = np.dtype(
    [("normal", "<f4", (3,)), ("vertices", "<f4", (3, 3)), ("attribute", "<u2")]
)
STL_SIGNATURE = b"armscan binary STL"

# A facet whose edge cross product is shorter than this (mm^2, twice
# its area) has no normal and is never built.
DEGENERATE_NORM = 1e-12

XYZ_DECIMALS = 6


class FormatError(ValueError):
    """Malformed STL or xyz data; the message carries the byte or line position."""


@dataclass
class TriangleMesh:
    """Ordered triangle soup, as STL stores it: (N, 3, 3) vertices and
    (N, 3) unit normals."""

    vertices: np.ndarray = field(default_factory=lambda: np.zeros((0, 3, 3)))
    normals: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3, 3)
        self.normals = np.asarray(self.normals, dtype=float).reshape(-1, 3)
        if len(self.normals) != len(self.vertices):
            raise ValueError(
                f"{len(self.normals)} normals for {len(self.vertices)} facets"
            )

    @classmethod
    def from_vertices(cls, vertices) -> "TriangleMesh":
        """Facets with the right-hand-rule normals of their vertex rows.

        Raises ValueError for a facet with collinear vertices or a
        normal whose norm is not finite; such facets are never emitted.
        """
        v = np.asarray(vertices, dtype=float).reshape(-1, 3, 3)
        # edges past about 1e77 mm overflow the norm: rejected below, unwarned
        with np.errstate(over="ignore", invalid="ignore"):
            cross = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
            # A row dot product rounds as a single facet's norm does;
            # np.linalg.norm(axis=1) can differ in the last bit.
            norm = np.sqrt(cross[:, None, :] @ cross[:, :, None])[:, 0, 0]
        bad = np.flatnonzero(~(norm < math.inf) | (norm < DEGENERATE_NORM))
        if bad.size:
            v1, v2, v3 = v[bad[0]]
            why = "degenerate triangle" if norm[bad[0]] < DEGENERATE_NORM else "non-finite normal"
            raise ValueError(f"{why}: {v1}, {v2}, {v3}")
        return cls(v, cross / norm[:, None])

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass
class PointCloud:
    """Unordered 3D points (mm), stored row-wise."""

    points: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)

    def __len__(self) -> int:
        return len(self.points)


# ------------------------------------------------------------------ STL


def write_stl_binary(mesh: TriangleMesh) -> bytes:
    count = len(mesh)
    if count > 0xFFFFFFFF:
        raise FormatError(f"triangle count {count} exceeds the u32 field")
    records = np.zeros(count, dtype=STL_RECORD)
    records["normal"] = mesh.normals
    records["vertices"] = mesh.vertices
    return (
        STL_SIGNATURE.ljust(STL_HEADER_BYTES, b"\0")
        + struct.pack("<I", count)
        + records.tobytes()
    )


def _read_stl_binary(data: bytes) -> TriangleMesh:
    if len(data) < STL_HEADER_BYTES + 4:
        raise FormatError(
            f"file is {len(data)} bytes, shorter than the 84-byte binary minimum"
        )
    (count,) = struct.unpack_from("<I", data, STL_HEADER_BYTES)
    expected = STL_HEADER_BYTES + 4 + STL_RECORD.itemsize * count
    if len(data) != expected:
        raise FormatError(
            f"size mismatch: header declares {count} triangles "
            f"({expected} bytes) but the file holds {len(data)} bytes"
        )
    records = np.frombuffer(data, dtype=STL_RECORD, offset=STL_HEADER_BYTES + 4)
    mesh = TriangleMesh(
        records["vertices"].astype(float), records["normal"].astype(float)
    )
    return _require_finite(
        mesh, lambda k: f"byte {STL_HEADER_BYTES + 4 + k * STL_RECORD.itemsize}"
    )


def _require_finite(mesh: TriangleMesh, position) -> TriangleMesh:
    """`mesh`, or FormatError naming its first facet with a NaN or
    infinite coordinate; `position(k)` says where facet k starts."""
    # one flat reduction first: a per-facet one doubles a binary read
    if np.isfinite(mesh.vertices).all() and np.isfinite(mesh.normals).all():
        return mesh
    finite = np.isfinite(mesh.vertices).all(axis=(1, 2))
    finite &= np.isfinite(mesh.normals).all(axis=1)
    k = int(np.argmin(finite))
    raise FormatError(f"{position(k)}: facet {k + 1} has a non-finite coordinate")


# The lines after each "facet normal" line: keyword, count of numbers.
STL_FACET_BODY = (
    ("outer loop", 0),
    ("vertex", 3),
    ("vertex", 3),
    ("vertex", 3),
    ("endloop", 0),
    ("endfacet", 0),
)


def _stl_numbers(no: int, line, keyword: str, count: int) -> list:
    """The `count` numbers after `keyword` on ASCII STL line `no`, or
    FormatError; a `line` of None is the end of the text."""
    words = keyword.split()
    tokens = (line or "").split()
    if tokens[: len(words)] != words:
        raise FormatError(f"line {no}: expected '{keyword}', got {line!r}")
    numbers = tokens[len(words):]
    if len(numbers) != count:
        raise FormatError(
            f"line {no}: expected {count} numbers after '{keyword}', got {len(numbers)}"
        )
    try:
        return [float(tok) for tok in numbers]
    except ValueError as exc:
        raise FormatError(f"line {no}: {exc}") from None


def _read_stl_ascii(text: str) -> TriangleMesh:
    """Every `solid ... endsolid` block of `text`, in order, as one mesh."""
    rows = text.splitlines()
    lines = ((no, line) for no, line in enumerate(map(str.strip, rows), 1) if line)
    end = (len(rows), None)
    normals, vertices, facet_lines = [], [], []
    for no, line in lines:
        if not line.startswith("solid"):
            raise FormatError(f"line {no}: expected 'solid', got {line!r}")
        for no, line in lines:
            if line.startswith("endsolid"):
                break
            normals.append(_stl_numbers(no, line, "facet normal", 3))
            facet_lines.append(no)
            body = [_stl_numbers(*next(lines, end), *row) for row in STL_FACET_BODY]
            vertices.append([numbers for numbers in body if numbers])  # the vertex rows
        else:
            raise FormatError(
                f"line {end[0]}: unterminated solid, missing 'endsolid'"
            )
    return _require_finite(
        TriangleMesh(vertices, normals), lambda k: f"line {facet_lines[k]}"
    )


def read_stl(data: bytes) -> TriangleMesh:
    """Parse an STL byte stream, binary or ASCII.

    A stream whose length is the 84 + 50 * count that its u32 at byte 80
    declares is binary, whatever its header says (four text bytes there
    declare over 150 million facets, 7.5 GB, so real text never does).
    Otherwise all-ASCII text that starts with 'solid' is ASCII, and
    every solid in it is read into one mesh; anything else fails in
    the binary reader.
    """
    if len(data) >= STL_HEADER_BYTES + 4:
        (count,) = struct.unpack_from("<I", data, STL_HEADER_BYTES)
        if len(data) == STL_HEADER_BYTES + 4 + STL_RECORD.itemsize * count:
            return _read_stl_binary(data)
    text = data.decode("ascii") if data.isascii() else ""
    if text.lstrip().startswith("solid"):
        return _read_stl_ascii(text)
    return _read_stl_binary(data)


def write_atomic(path, data) -> None:
    """Replace the file at `path` with `data` in one rename.

    `data` is bytes, or an iterable of byte chunks that are written as
    they come, so a long text never has to be held whole.  The bytes go
    to a fresh file beside the target, which `os.replace` then moves
    over it, so a failed write, or a chunk source that raises part way,
    leaves the old file (or no file) in place and removes its
    temporary.  This guards against a failure of this process, not
    against power loss: nothing is synced.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(temp, "xb") as fh:
            fh.writelines([data] if isinstance(data, (bytes, bytearray)) else data)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def save_stl(mesh: TriangleMesh, path) -> None:
    write_atomic(path, write_stl_binary(mesh))


def load_stl(path) -> TriangleMesh:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return read_stl(data)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


# ------------------------------------------------------------------ xyz


def write_xyz(cloud: PointCloud) -> str:
    row = " ".join([f"%.{XYZ_DECIMALS}f"] * 3) + "\n"
    return (row * len(cloud)) % tuple(cloud.points.ravel().tolist())


def read_xyz(text: str) -> PointCloud:
    rows = []
    for no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        tokens = stripped.split()
        if len(tokens) != 3:
            raise FormatError(
                f"line {no}: expected 3 coordinates, got {len(tokens)}"
            )
        try:
            row = [float(tok) for tok in tokens]
        except ValueError as exc:
            raise FormatError(f"line {no}: {exc}") from None
        if not all(map(math.isfinite, row)):
            raise FormatError(f"line {no}: non-finite coordinate in {stripped!r}")
        rows.append(row)
    return PointCloud(np.array(rows).reshape(-1, 3))


def save_xyz(cloud: PointCloud, path) -> None:
    write_atomic(path, write_xyz(cloud).encode("ascii"))


def load_xyz(path) -> PointCloud:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return read_xyz(data.decode("ascii"))
    except UnicodeDecodeError as exc:
        no = data.count(b"\n", 0, exc.start) + 1
        bad = data[exc.start]
        raise FormatError(f"{path}: line {no}: byte 0x{bad:02x} is not ASCII") from None
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
