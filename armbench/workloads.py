"""Workload definitions and the seeded input generator.

Each workload is a list of `armscan` command lines (one op) plus the
facts its output check needs.  Geometry never depends on the seed, so
the layer mix is the same for every seed; the seed only sets the noise
seeds (`[noise] seed` of the scan jobs and `test-a --seed`).

Inputs are cached under `.bench_cache/` in the checkout: the meshes and
the fixed 200,000-point target samples once, and per seed the INI jobs
and the `score` input reconstruction.  Building the fine wing takes
seconds, so the cache is what keeps later runs short.

Run as a script to fill the cache for one seed:

    python3 armbench/workloads.py --seed 7 --workload score
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
OUT = ROOT / ".bench_out"

# Seed whose artifacts are pinned by golden hashes in golden.json.
DEFAULT_SEED = 7
# Seeded surface sample of each target, for the chamfer_mm metric.
TARGET_SAMPLES = 200_000
TARGET_SAMPLE_SEED = 0

STD_WING = "wing.stl"
FINE_WING = "wing_fine.stl"
# make_wing keyword arguments of each target mesh.
MESHES = {
    STD_WING: dict(x0=220.0, y0=-70.0),
    FINE_WING: dict(x0=220.0, y0=-70.0, n_span=121, n_chord=161),
}

# Why each workload exists: which layers it loads and which it leaves idle.
# An op lasts about a second, so a run holds a few dozen ops and its
# median op time does not follow the host's second-to-second speed
# swings.
SCAN_JOBS = {
    # IK and motion dominate: 26x24 probes at 6 mm over the whole wing,
    # descents of ~60 mm.
    "wing-dense": dict(
        mesh=STD_WING,
        grid=dict(x0=220, y0=-70, rows=26, cols=24, row_spacing=6,
                  col_spacing=6, safe_z=60),
        floor_mode="table",
        noise=dict(sigma_contact=0.02, drift_per_contact=0.0001),
        expect={"points probed": 26 * 24, "triangles": 2 * 25 * 23,
                "unreachable": 0, "misses": 0},
    ),
    # STL read, scene build and raycast dominate: a 38,400-facet wing,
    # few probes and short descents from just above the 14.54 mm crest.
    # One row and one column overhang the wing: 12 + 13 - 1 = 24 misses.
    "wing-fine-lowz": dict(
        mesh=FINE_WING,
        grid=dict(x0=214, y0=-76, rows=13, cols=12, row_spacing=12,
                  col_spacing=12, safe_z=20),
        floor_mode="skip",
        noise=dict(sigma_contact=0.02, drift_per_contact=0.0),
        expect={"points probed": 13 * 12, "misses": 24, "unreachable": 0,
                "triangles": 2 * 11 * 10},
    ),
}
SCORE = "score"
WORKLOADS = tuple(SCAN_JOBS) + (SCORE,)
ARTIFACTS = ("stl", "xyz", "trace", "report")
# The scan whose reconstruction `score` compares against the target.
SCORE_SOURCE = "wing-dense"
COMPARE_SAMPLES = 200_000


def seed_dir(seed: int) -> Path:
    return CACHE / f"seed_{seed}"


def out_dir(workload: str) -> Path:
    return OUT / workload


def artifact_paths(workload: str) -> dict:
    base = out_dir(workload)
    return {
        "stl": base / "scan.stl",
        "xyz": base / "scan.xyz",
        "trace": base / "trace.csv",
        "report": base / "report.txt",
    }


def job_text(workload: str, seed: int, outputs: dict) -> str:
    spec = SCAN_JOBS[workload]
    lines = ["[scene]", f"mesh = {CACHE / spec['mesh']}", "table_z = 0",
             f"floor_mode = {spec['floor_mode']}", "", "[grid]"]
    lines += [f"{key} = {value}" for key, value in spec["grid"].items()]
    lines += ["", "[noise]"]
    lines += [f"{key} = {value}" for key, value in spec["noise"].items()]
    lines += [f"seed = {seed}", "", "[output]"]
    lines += [f"{key} = {outputs[key]}" for key in ARTIFACTS]
    lines += ["flip_normals = false", ""]
    return "\n".join(lines)


def job_path(workload: str, seed: int) -> Path:
    return seed_dir(seed) / f"{workload}.ini"


def recon_paths(seed: int) -> dict:
    base = seed_dir(seed) / "recon"
    return {key: base / path.name for key, path in artifact_paths(SCORE_SOURCE).items()}


def op_argvs(workload: str, seed: int) -> list:
    """The `armscan` command lines of one op of the workload."""
    if workload in SCAN_JOBS:
        return [["scan", str(job_path(workload, seed))]]
    return [
        ["compare", str(recon_paths(seed)["stl"]), str(CACHE / STD_WING),
         "--samples", str(COMPARE_SAMPLES)],
        ["test-a", "--sigma", "0.02", "--seed", str(seed)],
        ["test-b", "--sigma", "0.02", "--repeats", "30"],
    ]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _ensure_geometry() -> None:
    """Target meshes and target samples; independent of the seed."""
    import io

    import numpy as np

    from armscan.meshio import write_stl_binary
    from armscan.metrics import sample_mesh_surface
    from armscan.objects import make_wing

    manifest_path = CACHE / "geometry.json"
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text())
        if all(manifest.get(name, {}).get("kwargs") == kwargs
               for name, kwargs in MESHES.items()):
            return
    CACHE.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for name, kwargs in MESHES.items():
        started = time.perf_counter()
        mesh = make_wing(**kwargs)
        elapsed = time.perf_counter() - started
        _write_atomic(CACHE / name, write_stl_binary(mesh))
        sample = sample_mesh_surface(mesh, count=TARGET_SAMPLES, seed=TARGET_SAMPLE_SEED)
        buffer = io.BytesIO()
        np.save(buffer, sample.points)
        _write_atomic(CACHE / f"{name}.sample.npy", buffer.getvalue())
        manifest[name] = {"kwargs": kwargs, "facets": len(mesh), "make_wing_s": elapsed,
                          "sha256": sha256_file(CACHE / name)}
        del mesh
    _write_atomic(manifest_path, json.dumps(manifest, indent=2).encode())


def _ensure_jobs(seed: int) -> None:
    seed_dir(seed).mkdir(parents=True, exist_ok=True)
    for workload in SCAN_JOBS:
        text = job_text(workload, seed, artifact_paths(workload))
        _write_atomic(job_path(workload, seed), text.encode())


def _ensure_recon(seed: int) -> None:
    """The `score` input: the SCORE_SOURCE scan's reconstruction."""
    import io

    from armscan.cli import main

    done = seed_dir(seed) / "recon.done"
    if done.is_file():
        return
    recon_job = seed_dir(seed) / "recon.ini"
    _write_atomic(recon_job, job_text(SCORE_SOURCE, seed, recon_paths(seed)).encode())
    if main(["scan", str(recon_job)], out=io.StringIO()) != 0:
        raise RuntimeError(f"reconstruction scan for seed {seed} failed")
    _write_atomic(done, b"")


def ensure_inputs(seed: int, workload: str) -> dict:
    """Fill the cache for `seed` and `workload`; returns the geometry manifest."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    _ensure_geometry()
    _ensure_jobs(seed)
    if workload == SCORE:
        _ensure_recon(seed)
    return json.loads((CACHE / "geometry.json").read_text())


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", choices=WORKLOADS, default=SCORE)
    args = parser.parse_args()
    print(json.dumps(ensure_inputs(args.seed, args.workload)))
