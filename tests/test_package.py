"""The package's public surface."""

import importlib.util
from collections import Counter
from pathlib import Path

import armscan
from armscan import NoiseModel, RobotGeometry, ScanGrid, TargetScene, make_plate, run_scan


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
        run_scan(grid, RobotGeometry(), scene, NoiseModel())
    finally:
        tracer.restore()
    calls = Counter(span[0] for span in tracer.spans)
    # one cycle and one raycast per cell; every cell but the first has
    # a lateral leg before its descent; one precheck solve per cell
    assert calls["motion.probe_cycle"] == calls["scene.raycast_down"] == 12
    assert calls["motion.plan_line"] == 2 * 12 - 1
    assert calls["kinematics.inverse_kinematics"] == 12 + 2 * 12 - 1
