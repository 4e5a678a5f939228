"""Golden hashes: the exact bytes of a generated mesh, of two scan
jobs' four artifacts, of inverse-kinematics solves under arbitrary
rotations, and of surface samples and the Chamfer distance between them.

Determinism tests compare two runs of the same code; these pin the
bytes themselves, so any change to what a file holds (a different
float rounding, facet order, normal sign or CSV format) fails here
even when every run agrees with itself.  Reports echo absolute paths,
so the report is hashed with the run directory replaced by a token.
"""

import hashlib
import io
import math
import struct

import numpy as np

from armscan.cli import main
from armscan.kinematics import (
    JOINT_LIMITS,
    JointAngles,
    RobotGeometry,
    forward_kinematics,
    inverse_kinematics,
    normalize_angle,
    solve_path,
)
from armscan.meshio import TriangleMesh, write_stl_binary
from armscan.metrics import chamfer_distance, sample_mesh_surface
from armscan.objects import make_plate, make_wing

from oracles import radial_reference

ARTIFACTS = ("scan.stl", "scan.xyz", "trace.csv", "report.txt")

WING_STL_SHA256 = "d3349d2af63006db0cb0bb6f422b51f08adecd8f24332a2ac6de52a27b5b207b"

WING_JOB = """\
[scene]
mesh = wing.stl
table_z = 0
floor_mode = table

[grid]
x0 = 220
y0 = -70
rows = 26
cols = 24
row_spacing = 6
col_spacing = 6
safe_z = 60

[noise]
sigma_contact = 0.02
drift_per_contact = 1e-4
seed = 7

[output]
stl = out/scan.stl
xyz = out/scan.xyz
trace = out/trace.csv
report = out/report.txt
flip_normals = false
"""
WING_JOB_SHA256 = {
    "scan.stl": "925357037993e5527b2cf70a228a48021ebf792d16eca2612a496dd2b0c33473",
    "scan.xyz": "c0cde5bf1dfc48fb8da9df523692cb74d8b283982a0bbd78ce15f4fa80c160cc",
    "trace.csv": "b0284606e0152c741d76f36154e9431e0ec63d9b19d6ae35fb4de3464b5d1e07",
    "report.txt": "bdff6c3ef08c6483696414190ccc71e479e261ef71e62b845f519be4216b6709",
}

# Two plates with a 4 mm gap along y cover part of the grid.  In skip
# mode the first two rows and columns miss and so does the column over
# the gap, so the mesh has holes on two sides and one inside.
PLATE_JOB = """\
[scene]
mesh = plate.stl
table_z = 0
floor_mode = skip

[grid]
x0 = 240
y0 = -30
rows = 6
cols = 7
row_spacing = 6
col_spacing = 6
safe_z = 60

[noise]
sigma_contact = 0.01
seed = 3

[output]
stl = out/scan.stl
xyz = out/scan.xyz
trace = out/trace.csv
report = out/report.txt
flip_normals = true
"""
PLATE_JOB_SHA256 = {
    "scan.stl": "b78906f29973a90217c0f9999deb106561560e199bc84a28a3cf0114ba374add",
    "scan.xyz": "1478924c633cd80dc00c49b9a1f4a52529f58f1afd4cf0fbe9a6486dab24b7ba",
    "trace.csv": "b9c3cf91b404955acaaa650a2e07ac5d6f46d67b16115a50255adc577ee7f8f9",
    "report.txt": "4690f7f70be997de490cee2f5f5303e1cd69d6a8c601aec33ed653e387f3a0d9",
}

# Six wrist orientations (tool-down first, then five drawn in limits),
# each combined with the same 40 arm postures drawn in limits: 240 poses,
# two of each 40 on the back-reaching branch.  The hashes cover the
# solved angles' bytes alone.
IK_POSES_SHA256 = "ca400c1955b31b444f931be0664e6247cf45ac6dac23c32ca4e9eae9db268cb2"
IK_PATHS_SHA256 = "0a24ccf31633f77b8eba3d37883faba86dfb9ff9c81a924f2bcccabaf5b97c85"

# 20,000 samples of the wing, 1,500 of two plates at different heights
# over it, and float.hex of (cd, forward_mean, backward_mean) between them.
CHAMFER_SHA256 = {
    "wing": "27cc1ee5fbc193bac78c8b1321c304b6d30dbeeaf77d2a1b4db77329bf30b4e8",
    "plates": "3f35804c21ed6eff2211a7160cc22df5efe8b0338ee696f880b2f069145e4a66",
    "report": "af9284578a18ab198bad606388997759e621c98d5c5c6ca25df20e17cb8de3e9",
}


def two_plates() -> bytes:
    """Binary STL of two coplanar plates at z = 20, split at y = -8..-4."""
    facets = b"".join(
        write_stl_binary(make_plate(250.0, y0, 40.0, depth, 20.0))[84:]
        for y0, depth in ((-20.0, 12.0), (-4.0, 14.0))
    )
    return b"\0" * 80 + struct.pack("<I", len(facets) // 50) + facets


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_job(tmp_path, stl_bytes, job_text, mesh_name):
    (tmp_path / mesh_name).write_bytes(stl_bytes)
    (tmp_path / "job.ini").write_text(job_text)
    assert main(["scan", str(tmp_path / "job.ini")], out=io.StringIO()) == 0
    hashes = {}
    for name in ARTIFACTS:
        data = (tmp_path / "out" / name).read_bytes()
        if name == "report.txt":
            data = data.replace(str(tmp_path.resolve()).encode(), b"<RUN>")
        hashes[name] = sha256(data)
    return hashes


def test_golden_wing_stl_bytes():
    assert sha256(write_stl_binary(make_wing(220.0, -70.0))) == WING_STL_SHA256


def test_golden_wing_job_artifacts(tmp_path):
    wing = write_stl_binary(make_wing(220.0, -70.0))
    hashes = run_job(tmp_path, wing, WING_JOB, "wing.stl")
    assert hashes == WING_JOB_SHA256


def test_golden_plate_skip_flip_job_artifacts(tmp_path):
    hashes = run_job(tmp_path, two_plates(), PLATE_JOB, "plate.stl")
    assert hashes == PLATE_JOB_SHA256


def ik_pose_groups():
    """One list of in-limit FK poses per wrist orientation (t1 + t4, t5, t6)."""
    geom = RobotGeometry()
    rng = np.random.default_rng(20261018)
    lows = np.array([lo + 1e-6 for lo, hi in JOINT_LIMITS])
    highs = np.array([hi - 1e-6 for lo, hi in JOINT_LIMITS])
    wrists = [(0.0, math.pi, math.pi)]
    wrists += [tuple(rng.uniform(lows[3:], highs[3:])) for _ in range(5)]
    arms = rng.uniform(lows[:3], highs[:3], size=(40, 3))
    return geom, [
        [
            forward_kinematics(
                JointAngles(t1, t2, t3, normalize_angle(yaw - t1), t5, t6), geom
            )
            for t1, t2, t3 in arms.tolist()
        ]
        for yaw, t5, t6 in wrists
    ]


def test_golden_ik_single_poses():
    geom, groups = ik_pose_groups()
    data = b"".join(
        np.array(inverse_kinematics(pose, geom)).tobytes() for poses in groups for pose in poses
    )
    assert sha256(data) == IK_POSES_SHA256


def test_golden_ik_paths():
    geom, groups = ik_pose_groups()
    data = b""
    for poses in groups:
        points = np.array([p.position for p in poses])
        rows = solve_path(points.tolist(), poses[0].rotation.tolist(), geom)
        angles = np.array(rows, dtype=float)
        radial = [radial_reference(row, geom) for row in angles]
        assert angles.shape == (40, 6) and min(radial) < 0.0
        data += angles.tobytes()
    assert sha256(data) == IK_PATHS_SHA256


def test_golden_chamfer():
    wing = sample_mesh_surface(make_wing(220.0, -70.0), count=20_000, seed=3)
    pair = (
        make_plate(230.0, -60.0, 60.0, 50.0, 5.0),
        make_plate(300.0, 0.0, 50.0, 60.0, 12.0),
    )
    plates = sample_mesh_surface(
        TriangleMesh(
            np.concatenate([p.vertices for p in pair]),
            np.concatenate([p.normals for p in pair]),
        ),
        count=1_500,
        seed=11,
    )
    report = chamfer_distance(wing, plates)
    floats = (report.cd, report.forward_mean, report.backward_mean)
    assert {
        "wing": sha256(wing.points.tobytes()),
        "plates": sha256(plates.points.tobytes()),
        "report": sha256(" ".join(float.hex(v) for v in floats).encode()),
    } == CHAMFER_SHA256
