"""armscan benchmark: one workload, timed end to end or traced by layer.

    python3 armbench/run.py --workload wing-dense --seed 7 --seconds 30 --trace 0

Workloads (see workloads.py for why each exists): `wing-dense`,
`wing-fine-lowz`, `score`.  The run

1. fills the input cache for the seed (workloads.py, in a subprocess);
2. launches SETUP_LAUNCHES fresh interpreters and times each up to
   `armscan.cli` being imported (`setup_s`);
3. in one more runs the closed loop of ops (worker.py);
4. checks every op's output: exit codes, each op byte-identical to the
   run's first op, report counts against the job, golden SHA-256 at
   the default seed, and with `--trace 1` the span invariants;
5. prints every metric as `metric <name> = <value> <unit>` and, last,
   one JSON line with `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics, measured with tracing off.
`--trace 1` reports the per-layer metrics from the traced ops of a
separate run.  `chamfer_mm` is computed after the timed loop has ended.

A shared host's speed can drift by tens of percent within minutes, so
op and set-up times are reported normalized to a fixed host speed: each is
rescaled by runs of a fixed reference computation taken on either side
of it (hostref.py).  `job_norm_s_p50` and `setup_s` are medians of the
normalized times; the wall times are printed beside them as
`job_s_p50` and `setup_wall_s`.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostref  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 5
WORKER_TIMEOUT_S = 150
GENERATE_TIMEOUT_S = 600
GOLDEN = HERE / "golden.json"

END_TO_END_UNITS = {"job_norm_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "chamfer_mm": "mm"}
# Per-layer metrics in the result line: counts, ratios, and the times a
# layer spends on every workload.  The other layer times are printed but
# not reported, because they read 0 on the workloads that leave their
# layer idle.
PER_LAYER = (
    "kinematics.ik_calls", "kinematics.ik_failed", "kinematics.ik_self_s",
    "kinematics.ik_us_per_call", "kinematics.reach_calls", "kinematics.reach_s",
    "motion.plan_line_calls", "motion.waypoints", "motion.ik_per_waypoint",
    "motion.trace_csv_bytes",
    "scene.facets", "scene.rays", "scene.hit_ratio", "scene.noise_draws", "scene.noise_s",
    "scanner.facets_out",
    "meshio.stl_read_facets", "meshio.stl_read_s", "meshio.stl_write_bytes",
    "meshio.xyz_write_bytes",
    "metrics.sample_points",
    "cli.self_s",
    "objects.make_wing_s",
    "trace.job_norm_s_p50", "trace.overhead_s",
    "kinematics.self_share", "motion.self_share", "scene.self_share",
    "scanner.self_share", "meshio.self_share", "metrics.self_share", "cli.self_share",
)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_share", "_ratio", "_per_waypoint")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_us_per_call", "_us_per_ray")):
        return "us"
    if name.endswith(("_s", "_s_p50")):
        return "s"
    return "count"


PER_LAYER_UNITS = {name: unit_of(name) for name in PER_LAYER}
# Layer numbers that must repeat exactly from op to op.
EXACT = [name for name in PER_LAYER if unit_of(name) in ("count", "bytes")]


def launch(argv: list, env: dict) -> tuple:
    """Run a worker; (seconds until its `ready` line, exit code, stderr)."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=workloads.ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if line.strip() != "ready":
        return None, proc.returncode, err
    return ready, proc.returncode, err


def report_counts(text: str) -> dict:
    """The `# name   value` result lines of a scan report."""
    counts = {}
    for line in text.split("# results\n", 1)[-1].splitlines():
        name, _, value = line.lstrip("# ").rpartition(" ")
        if name and value.isdigit():
            counts[name.strip()] = int(value)
    return counts


def key_values(text: str) -> dict:
    return dict(
        (key.strip(), value.strip())
        for key, sep, value in (line.partition("=") for line in text.splitlines())
        if sep
    )


def digests(workload: str, first_op: dict) -> dict:
    """Golden-comparable SHA-256 of a run's outputs.

    The report echoes absolute paths, so the checkout directory is
    replaced by a placeholder before hashing.
    """
    if workload == workloads.SCORE:
        names = ("compare", "test-a", "test-b")
        return {n: hashlib.sha256(t.encode()).hexdigest()
                for n, t in zip(names, first_op["stdout"])}
    paths = workloads.artifact_paths(workload)
    found = {k: workloads.sha256_file(paths[k]) for k in ("stl", "xyz", "trace")}
    report = paths["report"].read_text().replace(str(workloads.ROOT), "<checkout>")
    found["report"] = hashlib.sha256(report.encode()).hexdigest()
    return found


def check_run(workload: str, seed: int, result: dict, trace: bool) -> tuple:
    """(failed op count, run-level problems, facts for the metrics)."""
    ops = result["ops"]
    first = ops[0]["fingerprint"]
    failed = sum(
        1 for op in ops
        if op["error"] or any(op["codes"]) or op["fingerprint"] != first
    )
    problems = [f"op {i}: {op['error'] or op['codes']}"
                for i, op in enumerate(ops) if op["error"] or any(op["codes"])]
    if failed and not problems:
        problems.append("ops differ from the run's first op")
    facts = {}
    if problems:
        return failed, problems, facts

    if workload in workloads.SCAN_JOBS:
        paths = workloads.artifact_paths(workload)
        counts = report_counts(paths["report"].read_text())
        facts["points"] = counts.get("points probed", 0)
        facts["waypoints"] = counts.get("trace waypoints")
        for name, want in workloads.SCAN_JOBS[workload]["expect"].items():
            if counts.get(name) != want:
                problems.append(f"report {name!r} = {counts.get(name)}, expected {want}")
        facts["chamfer_mm"] = chamfer_of_scan(workload)
    else:
        compare, test_a, test_b = (key_values(t) for t in ops[0]["stdout"])
        facts["chamfer_mm"] = float(compare["chamfer_mm"])
        want = str(workloads.COMPARE_SAMPLES)
        if compare.get("points_a") != want or compare.get("points_b") != want:
            problems.append(f"compare sampled {compare.get('points_a')} and "
                            f"{compare.get('points_b')} points, expected {want}")
        if "average_dd_mm" not in test_a or test_b.get("repeats") != "30":
            problems.append("test-a or test-b output is incomplete")

    if seed == workloads.DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text())[workload]
        found = digests(workload, ops[0])
        facts["digests"] = found
        for name, want in golden.items():
            if found.get(name) != want:
                problems.append(f"{name} SHA-256 {found.get(name)} != golden {want}")

    if trace:
        problems += check_trace(workload, result, facts)
    return failed, problems, facts


def check_trace(workload: str, result: dict, facts: dict) -> list:
    """Span invariants of a traced run."""
    problems = [f"tracer could not wrap {site}" for site in result["skipped"]]
    layers = list(result["layers"].values())
    for index, op in result["layers"].items():
        wall = result["ops"][int(index)]["wall_s"]
        if op["trace.self_sum_s"] > wall:
            problems.append(f"op {index}: span time exceeds its wall time {wall}")
    for name in EXACT:
        if len({op[name] for op in layers}) != 1:
            problems.append(f"{name} differs between traced ops")
    if workload in workloads.SCAN_JOBS:
        if layers[0]["motion.waypoints"] != facts["waypoints"]:
            problems.append("motion.waypoints differs from the report's trace waypoints")
        if layers[0]["scene.rays"] != facts["points"]:
            problems.append("scene.rays differs from the points probed")
    return problems


def chamfer_of_scan(workload: str) -> float:
    """Chamfer of the op's XYZ cloud against the fixed target sample."""
    sys.path.insert(0, str(workloads.SRC))
    import numpy as np

    from armscan.meshio import PointCloud, load_xyz
    from armscan.metrics import chamfer_distance

    mesh = workloads.SCAN_JOBS[workload]["mesh"]
    sample = np.load(workloads.CACHE / f"{mesh}.sample.npy")
    cloud = load_xyz(workloads.artifact_paths(workload)["xyz"])
    return chamfer_distance(cloud, PointCloud(sample)).cd


def median_layers(result: dict) -> dict:
    """Per-layer numbers over the traced ops: counts of the first op (they
    are checked to repeat), the median of everything else."""
    layers = list(result["layers"].values())
    merged = {
        name: first if isinstance(first, int)
        else statistics.median(op[name] for op in layers)
        for name, first in layers[0].items()
    }
    merged["objects.make_wing_s"] = result["make_wing_s"]
    merged["trace.job_norm_s_p50"] = result["traced_job_norm_s_p50"]
    # the layer times are wall seconds, so their shares are of this
    merged["trace.job_wall_s_p50"] = result["traced_job_wall_s_p50"]
    merged["trace.overhead_s"] = result["overhead_s"]
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops its worker (see `launch`).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (workloads.SRC / "armscan" / "cli.py").is_file():
        print(f"error: no armscan sources under {workloads.SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(workloads.SRC), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    generate = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--seed", str(args.seed),
         "--workload", args.workload],
        env=env, cwd=workloads.ROOT, capture_output=True, text=True,
        timeout=GENERATE_TIMEOUT_S,
    )
    if generate.returncode != 0:
        print(f"error: input generation failed\n{generate.stderr}", file=sys.stderr)
        return 1
    geometry = json.loads(generate.stdout.splitlines()[-1])

    worker = [sys.executable, str(HERE / "worker.py")]
    setups = []  # (wall seconds, mean reference seconds around the launch)
    hostref.measure()  # warm-up
    for _ in range(SETUP_LAUNCHES):
        ref_before = hostref.measure()
        ready, code, err = launch(worker + ["--setup-only"], env)
        if ready is None or code != 0:
            print(f"error: interpreter set-up failed\n{err}", file=sys.stderr)
            return 1
        setups.append((ready, (ref_before + hostref.measure()) / 2.0))
    result_path = workloads.out_dir(args.workload) / f"result_trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    ready, code, err = launch(worker + [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", str(result_path)], env)
    if ready is None or code != 0 or not result_path.is_file():
        print(f"error: worker failed\n{err}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())

    failed, problems, facts = check_run(args.workload, args.seed, result, bool(args.trace))
    ops = result["ops"]
    if problems and not failed:
        failed = len(ops)  # every op equals the first, so all share the fault
    for problem in problems:
        print(f"check failed: {problem}")
    for name, digest in facts.get("digests", {}).items():
        print(f"digest {name} = {digest}")

    timed = [op for op in ops if op["timed"] and not op["traced"]]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} ops ({len(timed)} timed untraced), {failed} failed")
    print(f"metric fail_ratio = {failed / len(ops)} ratio")
    for name, info in geometry.items():
        print(f"metric objects.make_wing_s[{name}] = {info['make_wing_s']} s "
              f"({info['facets']} facets, input generation)")

    if args.trace:
        values = median_layers(result)
        for name, value in sorted(values.items()):
            print(f"metric {name} = {value} {unit_of(name)}")
        units = PER_LAYER_UNITS
    else:
        values = {
            "job_norm_s_p50": statistics.median(
                hostref.normalized(op["wall_s"], op["ref_s"]) for op in timed),
            "setup_s": statistics.median(
                hostref.normalized(wall, ref) for wall, ref in setups),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "chamfer_mm": facts.get("chamfer_mm"),
        }
        print(f"metric job_s_ops = {len(timed)} count")
        print(f"metric job_s_p50 = {statistics.median(op['wall_s'] for op in timed)} s (wall)")
        print(f"metric job_cpu_s_p50 = {statistics.median(op['cpu_s'] for op in timed)} s")
        print(f"metric setup_wall_s = {statistics.median(wall for wall, _ in setups)} s")
        print(f"metric host.ref_s = {statistics.median(op['ref_s'] for op in timed)} s "
              f"(reference; {hostref.REF_S} s at the normalized speed)")
        if "points" in facts:
            print(f"metric probes_per_s = "
                  f"{facts['points'] / values['job_norm_s_p50']} 1/s (normalized)")
        for name, unit in END_TO_END_UNITS.items():
            print(f"metric {name} = {values[name]} {unit}")
        units = END_TO_END_UNITS

    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
