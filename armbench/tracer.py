"""Span tracing of `armscan` from outside the package.

`install` replaces each traced function with a wrapper at every name
its callers look it up by (a module attribute, or a method on its
class), and `Tracer.restore` puts every original back.  Nothing under
`src/` is edited.  A span is (name, start, end, parent, op); spans stay
in memory until `Tracer.write` saves them.

A site whose name no longer refers to the original function is left
alone and listed in `Tracer.skipped`, so a refactor of the package
shows up as a missing layer instead of a wrong one.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter, defaultdict

# The layers: the package's modules.
MODULES = ("kinematics", "motion", "scene", "scanner", "meshio", "metrics", "objects", "cli")

# (span name, defining module, attribute, modules whose global is the callee)
FUNCTIONS = (
    # motion imports inverse_kinematics by name; is_reachable reaches it
    # through armscan.kinematics; metrics and cli bind their own imports.
    ("kinematics.inverse_kinematics", "kinematics", "inverse_kinematics",
     ("kinematics", "motion", "metrics", "cli")),
    ("kinematics.is_reachable", "kinematics", "is_reachable",
     ("kinematics", "scanner", "metrics")),
    ("motion.plan_line", "motion", "plan_line", ("motion",)),
    ("motion.probe_cycle", "motion", "probe_cycle", ("motion", "scanner")),
    # probe_contact reaches raycast_down through armscan.scene.
    ("scene.raycast_down", "scene", "raycast_down", ("scene",)),
    ("scene.probe_contact", "scene", "probe_contact", ("scene", "motion")),
    ("scanner.run_scan", "scanner", "run_scan", ("scanner", "cli")),
    ("scanner.triangulate", "scanner", "triangulate", ("scanner",)),
    ("meshio.load_stl", "meshio", "load_stl", ("meshio", "cli")),
    ("meshio.save_stl", "meshio", "save_stl", ("meshio", "cli")),
    ("meshio.load_xyz", "meshio", "load_xyz", ("meshio", "cli")),
    ("meshio.save_xyz", "meshio", "save_xyz", ("meshio", "cli")),
    ("metrics.sample_mesh_surface", "metrics", "sample_mesh_surface", ("metrics",)),
    ("metrics.chamfer_distance", "metrics", "chamfer_distance", ("metrics",)),
    ("metrics.test_a", "metrics", "test_a", ("metrics",)),
    ("metrics.test_b", "metrics", "test_b", ("metrics",)),
    ("cli.main", "cli", "main", ("cli",)),
    ("cli.load_job", "cli", "load_job", ("cli",)),
    ("cli.run_job", "cli", "run_job", ("cli",)),
    ("cli.write_text", "cli", "_write_text", ("cli",)),
    ("objects.make_wing", "objects", "make_wing", ("objects",)),
)

# (span name, defining module, class, method)
METHODS = (
    ("scene.build", "scene", "TargetScene", "__post_init__"),
    ("scene.error_at", "scene", "NoiseModel", "error_at"),
    ("motion.to_csv", "motion", "JointTrace", "to_csv"),
    ("scanner.measured_cloud", "scanner", "PointGrid", "measured_cloud"),
)


# Counts taken from a call's arguments and result: span name -> (count
# name, function of (args, result) giving the increment).
COUNTS = {
    "scene.raycast_down": ("scene.hits", lambda a, r: r is not None),
    "scene.build": ("scene.facets", lambda a, r: len(a[0].mesh)),
    "motion.probe_cycle": ("motion.waypoints", lambda a, r: len(r[1])),
    "motion.to_csv": ("motion.trace_csv_bytes", lambda a, r: len(r.encode())),
    "scanner.triangulate": ("scanner.facets_out", lambda a, r: len(r)),
    "meshio.load_stl": ("meshio.stl_read_facets", lambda a, r: len(r)),
    "meshio.save_stl": ("meshio.stl_write_bytes", lambda a, r: os.path.getsize(a[1])),
    "meshio.save_xyz": ("meshio.xyz_write_bytes", lambda a, r: os.path.getsize(a[1])),
    "metrics.sample_mesh_surface": ("metrics.sample_points", lambda a, r: len(r)),
}

IK = "kinematics.inverse_kinematics"


class Tracer:
    """In-memory span recorder with per-op counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op]
        self.counts = defaultdict(Counter)  # op -> count name -> value
        self.op = None
        self.skipped = []
        self._stack = []
        self._restore = []
        self._ik_errors = ()

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        count = COUNTS.get(name)
        ik_errors = self._ik_errors if name == IK else ()

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except ik_errors:
                counts[self.op]["kinematics.ik_failed"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                counts[self.op][count[0]] += count[1](args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> "Tracer":
        # Import every module first: one imported after a patch would
        # bind the wrapper and look like a foreign name.
        modules = {name: importlib.import_module(f"armscan.{name}") for name in MODULES}
        kin = modules["kinematics"]
        self._ik_errors = (kin.UnreachableError, kin.JointLimitError)
        for name, home, attr, sites in FUNCTIONS:
            original = getattr(modules[home], attr, None)
            if original is None:
                self.skipped.append(f"armscan.{home}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            for site in sites:
                module = modules[site]
                if getattr(module, attr, None) is not original:
                    self.skipped.append(f"armscan.{site}.{attr}")
                    continue
                setattr(module, attr, wrapper)
                self._restore.append((module, attr, original))
        for name, home, cls_name, attr in METHODS:
            cls = getattr(modules[home], cls_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                self.skipped.append(f"armscan.{home}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, self._wrap(name, original))
            self._restore.append((cls, attr, original))
        return self

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Save the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans, first: int = 0) -> list:
    """Each span's duration minus the time its child spans cover.

    `spans` is a contiguous slice of `Tracer.spans` starting at index
    `first`.  Spans nest (one thread), and a parent is recorded before
    its children, so the children of a span are disjoint sub-intervals.
    """
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3] - first] -= span[2] - span[1]
    return own


def _ratio(part, base) -> float:
    return part / base if base else 0.0


def op_layers(spans, first: int, counts: Counter, wall_s: float) -> dict:
    """Per-layer numbers of one op from its spans and counters.

    `spans` is the op's contiguous slice of `Tracer.spans`, starting at
    index `first`.  `_self_s` names are self times, other `_s` names
    whole-call times; a share is self time over the op's wall time.
    """
    own = self_times(spans, first)
    calls = Counter()
    self_s, total_s, module_s = defaultdict(float), defaultdict(float), defaultdict(float)
    ik_in_plan = 0
    for span, mine in zip(spans, own):
        name = span[0]
        calls[name] += 1
        self_s[name] += mine
        total_s[name] += span[2] - span[1]
        module_s[name.split(".")[0]] += mine
        if name == IK and span[3] >= 0 and spans[span[3] - first][0] == "motion.plan_line":
            ik_in_plan += 1

    rays = calls["scene.raycast_down"]
    layers = {
        "kinematics.ik_calls": calls[IK],
        "kinematics.ik_self_s": self_s[IK],
        "kinematics.ik_us_per_call": 1e6 * _ratio(self_s[IK], calls[IK]),
        "kinematics.ik_failed": counts["kinematics.ik_failed"],
        "kinematics.reach_calls": calls["kinematics.is_reachable"],
        "kinematics.reach_s": total_s["kinematics.is_reachable"],
        "motion.plan_line_calls": calls["motion.plan_line"],
        "motion.plan_self_s": self_s["motion.plan_line"],
        "motion.probe_cycle_self_s": self_s["motion.probe_cycle"],
        "motion.waypoints": counts["motion.waypoints"],
        "motion.ik_per_waypoint": _ratio(ik_in_plan, counts["motion.waypoints"]),
        "motion.trace_csv_s": total_s["motion.to_csv"],
        "motion.trace_csv_bytes": counts["motion.trace_csv_bytes"],
        "scene.facets": counts["scene.facets"],
        "scene.build_s": total_s["scene.build"],
        "scene.rays": rays,
        "scene.raycast_s": total_s["scene.raycast_down"],
        "scene.raycast_us_per_ray": 1e6 * _ratio(total_s["scene.raycast_down"], rays),
        "scene.hit_ratio": _ratio(counts["scene.hits"], rays),
        "scene.noise_draws": calls["scene.error_at"],
        "scene.noise_s": total_s["scene.error_at"],
        "scanner.run_scan_self_s": self_s["scanner.run_scan"],
        "scanner.triangulate_s": total_s["scanner.triangulate"],
        "scanner.facets_out": counts["scanner.facets_out"],
        "meshio.stl_read_s": total_s["meshio.load_stl"],
        "meshio.stl_read_facets": counts["meshio.stl_read_facets"],
        "meshio.stl_write_s": total_s["meshio.save_stl"],
        "meshio.stl_write_bytes": counts["meshio.stl_write_bytes"],
        "meshio.xyz_write_s": total_s["meshio.save_xyz"],
        "meshio.xyz_write_bytes": counts["meshio.xyz_write_bytes"],
        "metrics.sample_s": total_s["metrics.sample_mesh_surface"],
        "metrics.sample_points": counts["metrics.sample_points"],
        "metrics.chamfer_s": total_s["metrics.chamfer_distance"],
        "metrics.test_a_s": total_s["metrics.test_a"],
        "metrics.test_b_s": total_s["metrics.test_b"],
        "cli.load_job_s": total_s["cli.load_job"],
        "cli.write_text_s": total_s["cli.write_text"],
        "cli.self_s": module_s["cli"],
        "trace.spans": len(spans),
        "trace.self_sum_s": sum(own),
    }
    for module in MODULES:
        layers[f"{module}.self_s"] = module_s[module]
        layers[f"{module}.self_share"] = _ratio(module_s[module], wall_s)
    return layers
