"""Self-checks of the benchmark.  Run from the repository root:

    python3 -m pytest -q armbench

The traced-run tests launch the benchmark itself (a few minutes in
all); the run's own checks cover `motion.waypoints` against the
report, `scene.rays` against the points probed, traced against
untraced artifacts, and span time against wall time, so each test
requires `correct` and then compares two runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload, trace, cwd=HERE.parent, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_across_runs(workload):
    first, second = (result_line(run_bench(workload, 1)) for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    for name in bench.EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


def test_traced_run_checks_the_report_counts():
    proc = run_bench("wing-dense", 1)
    assert result_line(proc)["correct"]
    printed = bench.key_values(proc.stdout.replace("metric ", ""))
    report = bench.report_counts(
        workloads.artifact_paths("wing-dense")["report"].read_text()
    )
    assert printed["motion.waypoints"] == f"{report['trace waypoints']} count"
    assert printed["scene.rays"] == f"{report['points probed']} count"


def test_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench("score", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_times_subtract_children():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["d", 5.0, 6.0, 0, 0],
        ["e", 20.0, 25.0, -1, 1],
        ["f", 21.0, 22.0, 4, 1],
    ]
    assert tracing.self_times(spans[:4]) == [6.0, 2.0, 1.0, 1.0]
    # the spans of a later op keep their global parent indices
    assert tracing.self_times(spans[4:], first=4) == [4.0, 1.0]


def test_install_binds_every_call_site_and_restore_undoes_it():
    import armscan.kinematics as kinematics
    import armscan.metrics as metrics
    import armscan.motion as motion
    import armscan.scene as scene

    ik = kinematics.inverse_kinematics
    error_at = scene.NoiseModel.error_at
    tracer = tracing.Tracer().install()
    try:
        assert tracer.skipped == []
        wrapped = kinematics.inverse_kinematics
        assert wrapped is not ik and wrapped.__wrapped__ is ik
        assert motion.inverse_kinematics is wrapped
        assert metrics.inverse_kinematics is wrapped
        assert scene.NoiseModel.error_at is not error_at
    finally:
        tracer.restore()
    assert kinematics.inverse_kinematics is ik
    assert motion.inverse_kinematics is ik
    assert scene.NoiseModel.error_at is error_at


def test_failed_ik_is_counted_and_reraised():
    import armscan.kinematics as kinematics
    import armscan.motion as motion

    far = kinematics.Pose.tool_down(5000.0, 0.0, 0.0)
    tracer = tracing.Tracer().install()
    tracer.op = 0
    try:
        ok, _ = kinematics.is_reachable(far.position, kinematics.RobotGeometry())
        with pytest.raises(kinematics.UnreachableError):
            motion.inverse_kinematics(far, kinematics.RobotGeometry())
    finally:
        tracer.restore()
    assert not ok
    assert tracer.counts[0]["kinematics.ik_failed"] == 2
    assert [span[0] for span in tracer.spans] == [
        "kinematics.is_reachable", tracing.IK, tracing.IK,
    ]
