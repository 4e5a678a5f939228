"""The package's public surface."""

import ast
import importlib.util
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import armscan
from armscan import (
    NoiseModel,
    PointCloud,
    RobotGeometry,
    ScanGrid,
    TargetScene,
    cli,
    make_plate,
    run_scan,
    save_stl,
    save_xyz,
)

SRC = Path(__file__).resolve().parents[1] / "src"

PLATE_JOB = """\
[scene]
mesh = plate.stl
[grid]
x0 = 260
y0 = -20
rows = 2
cols = 3
row_spacing = 10
col_spacing = 10
safe_z = 60
[output]
stl = out/scan.stl
xyz = out/scan.xyz
trace = out/trace.csv
report = out/report.txt
"""

# Run in a fresh interpreter: the test process has SciPy loaded already.
# Prints one JSON object: whether SciPy was loaded at each stage, the
# exit code of each command, and compare's output.
SCIPY_PROBE = """\
import io, json, sys
import armscan.cli as cli

def loaded():
    return "scipy" in sys.modules

def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(list(argv), out=out, err=err)
    return code, out.getvalue()

where = sys.argv[1]
seen = {"import": loaded()}
codes = [
    run(*argv)[0]
    for argv in (
        ("fk", "0", "0", "0", "0", "0", "0"),
        ("ik", "300", "0", "50"),
        ("test-a",),
        ("test-b", "--repeats", "3"),
        ("scan", where + "/job.ini"),
    )
]
seen["commands"] = loaded()
code, text = run("compare", where + "/plate.stl", where + "/mid.xyz", "--samples", "200")
print(json.dumps({"seen": seen, "codes": codes + [code], "compare": text}))
"""


def test_every_export_resolves():
    # a stale name here would break `from armscan import *`
    missing = [name for name in armscan.__all__ if not hasattr(armscan, name)]
    assert missing == []


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "armbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("armbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_binds_every_site():
    # the benchmark's layers wrap these names; a renamed or moved site
    # would drop a layer from its report
    tracer = load_tracer().Tracer().install()
    try:
        assert tracer.skipped == []
        grid = ScanGrid(260.0, -20.0, 3, 4, 10.0, 10.0, safe_z=60.0)
        scene = TargetScene(make_plate(200.0, -100.0, 200.0, 200.0, 25.0))
        result = run_scan(grid, RobotGeometry(), scene, NoiseModel())
        csv = result.trace.to_csv()
    finally:
        tracer.restore()
    calls = Counter(span[0] for span in tracer.spans)
    # the tracer counts the CSV's bytes from a str: a bytes return would
    # fail every traced op
    assert calls["motion.to_csv"] == 1
    assert tracer.counts[None]["motion.trace_csv_bytes"] == len(csv.encode())
    # one cycle, one raycast and one solve of both legs per cell; the
    # legs and the precheck solve paths without `inverse_kinematics`,
    # and the noise is drawn in one batch, not by `error_at`
    assert calls["motion.probe_cycle"] == calls["scene.raycast_down"] == 12
    assert calls["motion.plan_line"] == 12
    assert calls["kinematics.inverse_kinematics"] == 0
    assert calls["scene.error_at"] == 0
    # the benchmark's traced run checks that the cycles' rows sum to the
    # trace; a change that broke it would read `correct: false` there
    assert tracer.counts[None]["motion.waypoints"] == len(result.trace) == 211


def test_only_compare_imports_scipy(tmp_path):
    # SciPy's import is most of start-up, and only Chamfer needs it
    save_stl(make_plate(200.0, -100.0, 200.0, 200.0, 25.0), tmp_path / "plate.stl")
    save_xyz(PointCloud(np.array([[250.0, 0.0, 25.0]])), tmp_path / "mid.xyz")
    (tmp_path / "job.ini").write_text(PLATE_JOB)
    child = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result = json.loads(child.stdout)
    assert result["seen"] == {"import": False, "commands": False}
    assert result["codes"] == [0] * 6
    out = io.StringIO()
    argv = ["compare", str(tmp_path / "plate.stl"), str(tmp_path / "mid.xyz"), "--samples", "200"]
    assert cli.main(argv, out=out) == 0
    assert result["compare"] == out.getvalue()


# The plain ValueErrors of src/armscan, as (module, function): each is an
# invariant that the command line guards before it can break.  A rejected
# value from outside the program is a ConfigError, which exits 2; a plain
# ValueError would instead end the command with a traceback.
INVARIANT_VALUE_ERRORS = {
    ("meshio", "TriangleMesh.__post_init__"),  # normals count
    ("meshio", "TriangleMesh.from_vertices"),  # degenerate facet
    ("kinematics", "inverse_kinematics"),  # rotation not orthonormal
    ("kinematics", "_path_kernel"),  # NaN target
    ("metrics", "chamfer_distance"),  # empty cloud
}


def plain_value_error_sites(package: Path) -> list:
    """(module, qualified function name) of each `raise ValueError(...)`."""
    sites = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, scope + [child.name])
                continue
            if (
                isinstance(child, ast.Raise)
                and isinstance(child.exc, ast.Call)
                and isinstance(child.exc.func, ast.Name)
                and child.exc.func.id == "ValueError"
            ):
                sites.append((module, ".".join(scope)))
            visit(child, module, scope)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, [])
    return sites


def test_only_invariants_raise_plain_value_error():
    sites = plain_value_error_sites(SRC / "armscan")
    assert set(sites) == INVARIANT_VALUE_ERRORS
    assert len(sites) == len(INVARIANT_VALUE_ERRORS)
