"""One workload run in a fresh interpreter: a closed loop of ops.

The worker imports `armscan.cli`, writes `ready` on stdout (the parent
times set-up up to that line), then runs one untimed warm-up op and
issues ops back to back through `armscan.cli.main` until `--seconds`
have passed.  One caller, one thread.  With `--trace 1` ops alternate
traced and untraced, and spans are recorded around each traced op.
A run of the host speed reference (hostref.py) precedes the first timed
op and follows every op; each op records the mean of the two around it.

Every op's exit codes and a fingerprint of its outputs (SHA-256 of the
artifacts and of the captured stdout) go into the result file; the
parent checks them.  With `--setup-only` the worker exits after
`ready`.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import armscan.cli  # noqa: E402  (set-up ends here)

print("ready", flush=True)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostref  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def clear_artifacts(workload: str) -> None:
    if workload in workloads.SCAN_JOBS:
        for path in workloads.artifact_paths(workload).values():
            path.unlink(missing_ok=True)


def fingerprint(workload: str, outputs: list) -> list:
    """SHA-256 of each artifact and of each command's stdout."""
    digests = [hashlib.sha256(text.encode()).hexdigest() for _, text in outputs]
    if workload in workloads.SCAN_JOBS:
        for path in workloads.artifact_paths(workload).values():
            digests.append(
                workloads.sha256_file(path) if path.is_file() else "missing"
            )
    return digests


def run_op(argvs: list) -> tuple:
    """Issue the op's commands back to back.

    Returns (wall seconds, CPU seconds, outputs, error).
    """
    outputs = []
    error = None
    cpu = time.process_time()
    started = time.perf_counter()
    try:
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            code = armscan.cli.main(argv, out=out, err=err)
            outputs.append((code, out.getvalue()))
            if code != 0:
                error = err.getvalue()
                break
    except Exception:  # an op that crashes counts as failed; the loop goes on
        error = traceback.format_exc()
    return time.perf_counter() - started, time.process_time() - cpu, outputs, error


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    args = parser.parse_args()
    if args.setup_only:
        return 0

    argvs = workloads.op_argvs(args.workload, args.seed)
    workloads.out_dir(args.workload).mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    ops = []
    first_span = {}  # traced op index -> index of its first span

    ref_s = None  # the last reference time, taken just before this op

    def one_op(timed: bool, traced: bool) -> None:
        nonlocal ref_s
        clear_artifacts(args.workload)
        # Every op starts from a collected heap, so the collector's state
        # left by the previous op does not move this op's time.
        gc.collect()
        if traced:
            tracer.op = len(ops)
            first_span[tracer.op] = len(tracer.spans)
            tracer.install()
        try:
            wall, cpu, outputs, error = run_op(argvs)
        finally:
            if traced:
                tracer.restore()
        ref_before, ref_s = ref_s, hostref.measure()
        ops.append({
            "timed": timed,
            "traced": traced,
            "wall_s": wall,
            "cpu_s": cpu,
            "ref_s": (ref_before + ref_s) / 2.0 if ref_before else ref_s,
            "codes": [code for code, _ in outputs],
            "error": error,
            "fingerprint": fingerprint(args.workload, outputs),
            "stdout": [text for _, text in outputs] if not ops else None,
        })

    hostref.measure()  # warm-up of the reference
    one_op(timed=False, traced=False)  # warm-up
    # Peak RSS of a process that has run one op, as one `armscan` command
    # does; later ops reuse the heap, so the number does not depend on
    # how many ops fit in the run.
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    deadline = time.perf_counter() + args.seconds
    while True:
        # In a traced run, ops alternate traced and untraced.
        one_op(timed=True, traced=bool(args.trace) and len(ops) % 2 == 1)
        # a traced run needs one traced and one untraced op for the overhead
        if time.perf_counter() >= deadline and (not args.trace or len(ops) >= 3):
            break

    result = {"ops": ops, "peak_rss_kb": peak_rss_kb}
    if tracer is not None:
        tracer.op = "generation"
        tracer.install()
        try:
            armscan.objects.make_wing(**workloads.MESHES[workloads.STD_WING])
        finally:
            tracer.restore()
        generation = [s for s in tracer.spans if s[4] == "generation"]
        result["make_wing_s"] = sum(s[2] - s[1] for s in generation if s[3] < 0)
        result["skipped"] = sorted(set(tracer.skipped))
        result["layers"] = {}
        for index, first in first_span.items():
            spans = [s for s in tracer.spans if s[4] == index]
            result["layers"][index] = tracing.op_layers(
                spans, first, tracer.counts[index], ops[index]["wall_s"]
            )
        tracer.write(workloads.out_dir(args.workload) / "spans.jsonl")
        traced_s = [hostref.normalized(o["wall_s"], o["ref_s"])
                    for o in ops if o["timed"] and o["traced"]]
        untraced_s = [hostref.normalized(o["wall_s"], o["ref_s"])
                      for o in ops if o["timed"] and not o["traced"]]
        result["traced_job_norm_s_p50"] = statistics.median(traced_s)
        result["traced_job_wall_s_p50"] = statistics.median(
            o["wall_s"] for o in ops if o["timed"] and o["traced"])
        result["overhead_s"] = result["traced_job_norm_s_p50"] - statistics.median(untraced_s)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
