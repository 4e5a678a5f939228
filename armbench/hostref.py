"""Host speed reference: a fixed computation timed next to each op.

On a shared host, such as the 2-core virtual machine recorded in
baseline.json, CPU speed drifts by 10-35% over a few minutes: the same
op, back to back in one process, takes 0.8 s in one minute and 1.2 s
in another.  Wall time alone then
measures the host as much as the program.  So each op is bracketed by
runs of `reference`, which uses no `armscan` code and so cannot be made
faster or slower by a change to the program, and the op's time is
rescaled to a host on which the reference takes `REF_S`:

    normalized = wall * REF_S / reference time around the op

A program change moves the normalized time in the same proportion as
the wall time; a change of host speed moves the wall time and the reference
together and cancels.  The reference mixes the three kinds of work the
`armscan` ops do: interpreter work (function calls, float math, dict
stores), numpy calls on 3x3 matrices and 3-vectors, and bulk array work
(a KD-tree query and a sort).  On the machine in baseline.json the mix
tracked the op times of all three workloads better than any one part.
"""

import math
import time

import numpy as np
from scipy.spatial import cKDTree

# About the reference's duration on the machine recorded in
# baseline.json at its usual speed; normalized times are in seconds of
# that machine.
REF_S = 0.15

_RNG = np.random.default_rng(0)
_POINTS = _RNG.random((30_000, 3))
_QUERIES = _RNG.random((30_000, 3))
_EYE = np.eye(3)


def _interpreter() -> float:
    def step(a: float, b: float) -> float:
        return math.cos(a) * b + math.sin(b) * a

    total = 0.0
    table = {}
    for i in range(40_000):
        x = i * 0.001
        total += step(x, total * 1e-9 + 0.5)
        table[i & 511] = (x, total)
    return total


def _small_arrays() -> float:
    frame = np.eye(3)
    point = np.zeros(3)
    for i in range(4_000):
        c, s = math.cos(i * 0.01), math.sin(i * 0.01)
        frame = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ frame
        point = frame @ np.array([1.0, 2.0, 3.0]) + point * 0.5
        if np.abs(frame.T @ frame - _EYE).max() > 1.0:
            break
    return float(point[0])


def _bulk_arrays() -> float:
    distances, _ = cKDTree(_POINTS).query(_QUERIES)
    return float(distances.mean() + np.sort(_POINTS[:, 0])[0])


def reference() -> float:
    """The fixed computation; returns a value so none of it is skipped."""
    return _interpreter() + _small_arrays() + _bulk_arrays()


def measure() -> float:
    """Seconds one `reference` run takes now."""
    started = time.perf_counter()
    reference()
    return time.perf_counter() - started


def normalized(wall_s: float, ref_s: float) -> float:
    """`wall_s` rescaled by `ref_s`, the mean of the reference runs on
    either side of it."""
    return wall_s * REF_S / ref_s
