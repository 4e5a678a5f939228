"""Quantitative evaluation: Chamfer distance, mesh surface sampling,
algebraic sphere fitting, and the two probe performance tests.

The Chamfer distance here is the sum of the two directed mean
nearest-neighbor distances, not their average; both directed terms are
reported so either convention can be recovered.  Each cloud's KD-tree
is a sliding-midpoint one with compact nodes and 32-point leaves, and
each direction's queries of more than one block run on two threads,
the caller and one worker, which take alternate blocks.  The trees
are built one after the other: a build holds the GIL, so a second
thread gains nothing there.  SciPy (its KD-tree) is imported on the first Chamfer call,
not with this module: nothing else in the package uses it, and its
import would otherwise be about two thirds of every command's
start-up.

Surface samples are built in blocks of the same size, on one thread.
Each block draws its uniforms from three PCG64 streams, advanced to
where the seed's facet, `u` and `v` draws start, and picks its facets
through a guide table, so the points equal those of `Generator.choice`
and `Generator.random` drawn at full length, bit for bit.

The accuracy test probes nine points on a reference sphere (four on
the equator, four at 45 degrees latitude, one at the pole) and reports
each point's diameter-equivalent deviation from the fitted sphere.
The repeatability test probes one point many times at several reach
distances and reports the worst deviation from the centroid.
Rejected inputs, and fits and tests they make impossible, raise
`ConfigError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import (
    ConfigError,
    Pose,
    RobotGeometry,
    UnreachableError,
    inverse_kinematics,
    is_reachable,
)
from .meshio import PointCloud, TriangleMesh
from .scene import NoiseModel

# Points per block: sample_mesh_surface builds its points, and
# chamfer_distance queries its trees, this many at a time, so their
# temporaries stay bounded whatever the count.
BLOCK_POINTS = 8192

# Most steps sample_mesh_surface's guide-table facet pick takes forward
# from a point's bucket; the points still moving take a binary search,
# so a bucket crowded with tiny facets costs a block no more than that.
GUIDE_STEPS = 2

# Most points sample_mesh_surface draws.  Sampling holds little beyond
# the result's own 24 B a point, so this count fits in memory; a
# mistyped count would otherwise fail deep in numpy trying to allocate
# terabytes.
MAX_SAMPLE_POINTS = 10_000_000

TEST_B_DISTANCES = (120.0, 300.0, 500.0)
TEST_B_REPEATS = 10
# Most touches test_b makes per distance; like MAX_SAMPLE_POINTS, it
# stops a mistyped count before it draws for hours and allocates terabytes.
MAX_TEST_B_REPEATS = 1_000_000

# (latitude, longitude) degrees: equator and 45-degree rings at four
# equally spaced longitudes, plus the pole.
TEST_A_DIRECTIONS = (
    (0.0, 0.0),
    (0.0, 90.0),
    (0.0, 180.0),
    (0.0, -90.0),
    (45.0, 0.0),
    (45.0, 90.0),
    (45.0, 180.0),
    (45.0, -90.0),
    (90.0, 0.0),
)


# ------------------------------------------------------------------ chamfer


@dataclass(frozen=True)
class ChamferReport:
    cd: float
    forward_mean: float
    backward_mean: float
    m: int
    n: int

    def key_values(self) -> str:
        return (
            f"chamfer_mm = {self.cd:.9f}\n"
            f"forward_mean_mm = {self.forward_mean:.9f}\n"
            f"backward_mean_mm = {self.backward_mean:.9f}\n"
            f"points_a = {self.m}\n"
            f"points_b = {self.n}\n"
        )


def chamfer_distance(p: PointCloud, q: PointCloud) -> ChamferReport:
    """Sum of directed mean nearest-neighbor distances between clouds.

    Nearest neighbors come from a KD-tree but the distances are exact;
    the result is symmetric in its operands.

    Each cloud gets one sliding-midpoint tree with compact nodes and
    32-point leaves (`leafsize=32, balanced_tree=False`): fewer nodes
    than 24-point leaves give, in the same single-thread time, so the
    smaller trees pay for the memory of the second query thread.  The
    trees are built in turn on this thread, since a build holds the
    GIL.  Each cloud is queried against the other's tree in its own
    tree's leaf order (`tree.indices`), so consecutive queries walk the
    same part of the other tree while it is in cache.
    Queries run in blocks of BLOCK_POINTS points, which bounds the
    memory of each block's reordered copy and results; past one block,
    this thread and one worker take alternate blocks (`query` releases
    the GIL).
    Nearest-neighbor distances do not depend on tree shape, query order
    or thread, and they are scattered back to input order before the
    mean, so the mean adds the same numbers in the same order as
    input-order queries of balanced trees and the report is equal to
    theirs bit for bit.
    """
    if len(p) == 0 or len(q) == 0:
        raise ValueError("chamfer distance needs two non-empty clouds")
    from scipy.spatial import cKDTree

    tree_p = cKDTree(p.points, leafsize=32, balanced_tree=False)
    tree_q = cKDTree(q.points, leafsize=32, balanced_tree=False)
    forward = _nearest_distances(tree_q, p.points, tree_p.indices).mean()
    backward = _nearest_distances(tree_p, q.points, tree_q.indices).mean()
    return ChamferReport(forward + backward, forward, backward, len(p), len(q))


def _nearest_distances(tree, points: np.ndarray, order: np.ndarray):
    """Distance from each point to its nearest neighbor in `tree`, in
    input order, queried in blocks of the permutation `order`.

    With a second block, a worker thread queries the odd blocks while
    this one queries the even ones (`query` releases the GIL); each
    writes its own slots.  The worker is always joined, and its error
    is raised here, so no unwritten slot is ever returned.  A single
    block is queried here alone: a worker would have nothing to do.
    """
    import threading

    distances = np.empty(len(points))
    starts = range(0, len(order), BLOCK_POINTS)
    failed = []

    def query(owned):
        for start in owned:
            block = order[start : start + BLOCK_POINTS]
            distances[block] = tree.query(points[block])[0]

    if len(starts) < 2:
        query(starts)
        return distances

    def work():
        try:
            query(starts[1::2])
        except BaseException as exc:
            failed.append(exc)

    worker = threading.Thread(target=work)
    worker.start()
    try:
        query(starts[0::2])
    finally:
        worker.join()
    if failed:
        raise failed[0]
    return distances


def sample_mesh_surface(mesh: TriangleMesh, count: int, seed: int = 0) -> PointCloud:
    """`count` (1 to MAX_SAMPLE_POINTS) area-weighted uniform random
    points on the mesh surface.  Sampling is seeded by the non-negative
    `seed` and reproducible.

    The points are equal bit for bit to a whole-array build from
    `rng = default_rng(seed)`: `rng.choice(F, count, p=areas / total)`
    picks the facets, two `rng.random(count)` give `u` and `v`, which
    are flipped where `u + v > 1`, and each point is `v0 + u*e1 + v*e2`.
    No draw here is full length, though: each block of BLOCK_POINTS
    points makes its own.

    Draw streams: `Generator.random` takes one 64-bit PCG64 output per
    double, so the whole-array build's facet uniforms, `u` and `v` are
    outputs from 0, `count` and `2*count` of the seed's stream.  Three
    PCG64s put there by `advance` (an LCG jump-ahead) draw exactly those
    doubles, a block at a time.

    Facet pick: `choice`'s own arithmetic as of numpy 2.4, the count of
    entries of `cdf = (areas / total).cumsum()`, divided by `cdf[-1]`,
    at most the uniform (`searchsorted(..., side="right")`).  A guide
    table of G buckets, G the power of two at or above F, starts that
    search: `guide[j]` counts the entries at most `j / G`, and
    `floor(u * G)` is exact, so the answer is at or after
    `guide[floor(u * G)]`.  A point steps forward while its entry is at
    most `u`, which never passes the last facet, because `cdf[-1]` is
    exactly 1.0 and `u` is below 1; after GUIDE_STEPS steps the points
    still moving take the binary search.  Should numpy change
    `choice`'s arithmetic, the oracle test, which calls it, fails.

    Each block gathers its vertices and edges from three contiguous
    (F, 3) arrays.  The traced peak is about 37 B per point at 200,000
    points, 24 of them the result, against 100 for the whole-array
    build.
    """
    check_sampling(count, seed)
    tris = mesh.vertices
    if tris.size == 0:
        raise ConfigError("cannot sample an empty mesh")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        edge1 = tris[:, 1] - tris[:, 0]
        edge2 = tris[:, 2] - tris[:, 0]
        areas = 0.5 * np.linalg.norm(np.cross(edge1, edge2), axis=1)
        total = areas.sum()
    if total <= 0.0:
        raise ConfigError("mesh has zero surface area")
    if not math.isfinite(total):
        raise ConfigError("mesh surface area overflows")

    cdf = (areas / total).cumsum()
    cdf /= cdf[-1]
    buckets = 1 << (len(cdf) - 1).bit_length()
    guide = cdf.searchsorted(np.arange(buckets) / buckets, side="right")
    first = np.ascontiguousarray(tris[:, 0])
    facet_rng, u_rng, v_rng = (
        np.random.Generator(np.random.PCG64(seed).advance(offset))
        for offset in (0, count, 2 * count)
    )
    pts = np.empty((count, 3))
    for start in range(0, count, BLOCK_POINTS):
        size = min(BLOCK_POINTS, count - start)
        chosen = _pick_facets(cdf, guide, facet_rng.random(size))
        u = u_rng.random(size)
        v = v_rng.random(size)
        flip = u + v > 1.0
        u = np.where(flip, 1.0 - u, u)
        v = np.where(flip, 1.0 - v, v)
        pts[start : start + size] = (
            first.take(chosen, 0)
            + u[:, None] * edge1.take(chosen, 0)
            + v[:, None] * edge2.take(chosen, 0)
        )
    return PointCloud(pts)


def _pick_facets(cdf: np.ndarray, guide: np.ndarray, pick: np.ndarray) -> np.ndarray:
    """`cdf.searchsorted(pick, side="right")` for uniforms in [0, 1),
    started from the guide table of `sample_mesh_surface`."""
    chosen = guide[(pick * len(guide)).astype(np.intp)]
    for _ in range(GUIDE_STEPS):
        moving = cdf[chosen] <= pick
        if not moving.any():
            return chosen
        chosen += moving
    moving = cdf[chosen] <= pick
    chosen[moving] = cdf.searchsorted(pick[moving], side="right")
    return chosen


def check_sampling(count: int, seed: int) -> None:
    """Raise ConfigError unless sample_mesh_surface takes `count` and `seed`."""
    if count < 1:
        raise ConfigError(f"sample count must be at least 1, got {count}")
    if count > MAX_SAMPLE_POINTS:
        raise ConfigError(f"sample count must be at most {MAX_SAMPLE_POINTS}, got {count}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")


# ------------------------------------------------------------------ sphere


@dataclass(frozen=True)
class SphereFit:
    center: np.ndarray
    radius: float
    per_point_dd: np.ndarray
    mean_dd: float


def fit_sphere(points: PointCloud) -> SphereFit:
    """Algebraic least-squares sphere through the points.

    Minimizes the linearized residual ||p||^2 - 2 c.p + ||c||^2 - r^2
    via the standard linear system in (c, r^2 - ||c||^2).  Each point's
    deviation is reported as the diameter-equivalent 2 |dist - radius|.

    Raises ConfigError for fewer than 4 points, a coordinate that is
    not finite when doubled, a point whose squared norm is not finite,
    or a coplanar/degenerate set (singular system).
    """
    pts = points.points
    if len(pts) < 4:
        raise ConfigError(f"sphere fit needs at least 4 points, got {len(pts)}")
    with np.errstate(over="ignore"):
        a = np.column_stack([2.0 * pts, np.ones(len(pts))])
        b = (pts * pts).sum(axis=1)
    # LAPACK's solve may never return on a non-finite entry
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ConfigError(
            "sphere fit overflows: a doubled coordinate or a squared norm is not finite"
        )
    solution, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < 4:
        raise ConfigError("sphere fit is singular: points are coplanar or coincident")
    center = solution[:3]
    square = solution[3] + center @ center
    if square <= 0.0:
        raise ConfigError("sphere fit collapsed to non-positive radius")
    radius = math.sqrt(square)
    dd = 2.0 * np.abs(np.linalg.norm(pts - center, axis=1) - radius)
    return SphereFit(center, radius, dd, float(dd.mean()))


# ------------------------------------------------------------------ test A


@dataclass(frozen=True)
class AccuracyReport:
    """Nine-point sphere probe outcome, one row per probe point."""

    nominal_center: np.ndarray
    nominal_diameter: float
    rows: tuple  # (latitude_deg, longitude_deg, dd_mm)
    average_dd: float
    fit: SphereFit

    def table(self) -> str:
        lines = [
            "Point  Latitude  Longitude  Diameter difference (mm)",
        ]
        for n, (lat, lon, dd) in enumerate(self.rows, start=1):
            lines.append(f"{n:>5}  {lat:>8.0f}  {lon:>9.0f}  {dd:>24.5f}")
        lines.append(f"Average {self.average_dd:.5f}")
        return "\n".join(lines) + "\n"

    def key_values(self) -> str:
        out = [
            f"nominal_diameter_mm = {self.nominal_diameter:.6f}",
            f"fitted_diameter_mm = {2.0 * self.fit.radius:.6f}",
            f"average_dd_mm = {self.average_dd:.9f}",
        ]
        for n, (lat, lon, dd) in enumerate(self.rows, start=1):
            out.append(f"dd_{n}_mm = {dd:.9f}")
        return "\n".join(out) + "\n"


def probe_directions() -> np.ndarray:
    """Unit outward normals of the nine accuracy-test points."""
    dirs = []
    for lat, lon in TEST_A_DIRECTIONS:
        la, lo = math.radians(lat), math.radians(lon)
        dirs.append(
            [math.cos(la) * math.cos(lo), math.cos(la) * math.sin(lo), math.sin(la)]
        )
    return np.array(dirs)


def _approach_pose(point: np.ndarray, outward: np.ndarray) -> Pose:
    """Tool pose touching `point` with the probe axis along -outward."""
    approach = -outward
    seed = np.array([1.0, 0.0, 0.0])
    if abs(approach @ seed) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    x_axis = np.cross(seed, approach)
    x_axis /= np.linalg.norm(x_axis)
    y_axis = np.cross(approach, x_axis)
    return Pose(np.column_stack([x_axis, y_axis, approach]), point)


def test_a(
    center,
    diameter: float,
    geom: RobotGeometry,
    noise: NoiseModel,
) -> AccuracyReport:
    """Probe a reference sphere at nine points and fit it back.

    Each contact is simulated as the nominal surface point displaced
    radially by the contact error model (the probe travels along the
    surface normal).  The arm must reach every probe pose; placements
    it cannot reach raise UnreachableError.
    """
    if not 10.0 <= diameter <= 50.0:
        raise ConfigError(
            f"reference sphere diameter must be within [10, 50] mm, got {diameter}"
        )
    center = np.asarray(center, dtype=float).reshape(3)
    if not np.isfinite(center).all():
        raise ConfigError(f"sphere center must be finite, got {center.tolist()}")
    radius = diameter / 2.0
    dirs = probe_directions()

    measured = []
    errors = noise.errors(range(len(dirs))).tolist()
    for index, outward in enumerate(dirs):
        nominal = center + radius * outward
        try:
            inverse_kinematics(_approach_pose(nominal, outward), geom)
        except UnreachableError as exc:
            raise UnreachableError(
                f"sphere probe point {index + 1} at "
                f"({nominal[0]:.3f}, {nominal[1]:.3f}, {nominal[2]:.3f}): {exc}"
            ) from None
        measured.append(nominal + errors[index] * outward)

    fit = fit_sphere(PointCloud(np.array(measured)))
    rows = tuple(
        (lat, lon, float(dd))
        for (lat, lon), dd in zip(TEST_A_DIRECTIONS, fit.per_point_dd)
    )
    return AccuracyReport(center, diameter, rows, fit.mean_dd, fit)


# ------------------------------------------------------------------ test B


@dataclass(frozen=True)
class RepeatabilityReport:
    distance_from_base: float
    repeats: int
    repeatability: float  # max deviation from the centroid, the +/- value
    points: np.ndarray

    def key_values(self) -> str:
        return (
            f"distance_mm = {self.distance_from_base:.3f}\n"
            f"repeats = {self.repeats}\n"
            f"repeatability_mm = {self.repeatability:.9f}\n"
        )


def repeatability_table(reports) -> str:
    lines = ["Point distance (mm)  Point repeatability (mm)"]
    for r in reports:
        lines.append(
            f"{r.distance_from_base:>19.0f}  {'+/- %.4f' % r.repeatability:>24}"
        )
    return "\n".join(lines) + "\n"


def test_b(
    geom: RobotGeometry,
    noise: NoiseModel,
    distances=TEST_B_DISTANCES,
    repeats: int = TEST_B_REPEATS,
) -> list:
    """Probe one table point per distance `repeats` times, 2 to
    MAX_TEST_B_REPEATS.

    The point sits on the table plane at (distance, 0, 0); each touch
    is displaced vertically by the error model, consuming consecutive
    contact ordinals across the whole test.  Repeatability is the
    worst distance of any touch from the centroid of its group; a
    group whose heights or repeatability overflow raises ConfigError.
    """
    if repeats < 2:
        raise ConfigError("repeatability needs at least 2 repeats")
    if repeats > MAX_TEST_B_REPEATS:
        raise ConfigError(
            f"repeatability takes at most {MAX_TEST_B_REPEATS} repeats, got {repeats}"
        )
    for distance in distances:
        if not math.isfinite(distance):
            raise ConfigError(f"test distances must be finite, got {distance}")
    reports = []
    for which, distance in enumerate(distances):
        ok, why = is_reachable((distance, 0.0, 0.0), geom)
        if not ok:
            raise UnreachableError(f"test point at {distance} mm: {why}")
        zs = noise.errors(range(which * repeats, (which + 1) * repeats))
        pts = np.column_stack(
            [np.full(repeats, distance), np.zeros(repeats), zs]
        )
        # a touch height that is not finite makes the deviation NaN or inf
        with np.errstate(over="ignore", invalid="ignore"):
            deviation = np.linalg.norm(pts - pts.mean(axis=0), axis=1).max()
        if not math.isfinite(deviation):
            raise ConfigError(
                f"test point at {distance} mm: the contact errors overflow "
                f"its touch heights or their repeatability"
            )
        reports.append(
            RepeatabilityReport(distance, repeats, float(deviation), pts)
        )
    return reports
