"""Virtual probing world: target mesh over a table plane, vertical
ray-cast contact queries, and the contact error model.

The probe is a mathematical point descending along -z.  Contact heights
come from exact ray-triangle intersection, never from stepping, so
measurement accuracy is independent of any motion step size.  The error
model adds a per-contact Gaussian term plus a cumulative linear drift,
reproducing a hard-stop trigger whose deviation compounds over a scan.
A scan draws every contact's error in one `NoiseModel.errors` batch
before it probes, and hands each touch its own.

A contact is a (kind, z_true, z_measured) triple of plain values; NaN
is the only encoding of "no height", for a miss and for a point the arm
cannot reach alike.

The scene indexes its facets on a uniform xy grid built once: facet ids
sorted by the cell of their padded box's centre, plus one start offset
per cell and a table of the padded boxes in the same order, O(facets)
storage.  Each cell is at least as wide as the widest box, so a ray
tests only the facets of the 3x3 cells around it: it walks the three
row-runs of those cells in index order, tests each padded box with four
float comparisons and reads the vertices of the facets that pass alone,
all as Python numbers through memoryviews made at build, with no numpy
call per ray.  The arithmetic is that of testing every facet, and the
candidates are met in the same order as before the walk, so a tie keeps
the same facet and the result is exact, bit for bit.
The worst case is one very wide facet, which widens every cell until a
ray tests nearly every facet, as an unindexed scan would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import ConfigError
from .meshio import TriangleMesh

# A parallel-projection triangle thinner than this is never hit.
DEGENERATE_DET = 1e-12
# Barycentric slack: points this close outside an edge still count as
# hits, so grazing the shared edge of two facets cannot fall in a gap.
EDGE_TOL = 1e-12
# Padding of the per-triangle xy bounding boxes used for prefiltering;
# keeps the prefilter conservative with respect to EDGE_TOL.
BBOX_PAD = 1e-6
# Largest coordinate magnitude (mm) a scene takes.  The raycast's
# determinant and barycentric numerators, differences of products of
# coordinate differences, stay finite below about 4.7e153 mm; past
# that a hit test overflows to inf or NaN and every facet misses.
MAX_COORDINATE = 1e153

FLOOR_MODES = ("table", "skip")

CONTACT_MESH = "mesh"
CONTACT_TABLE = "table"
CONTACT_NONE = "none"
CONTACT_UNREACHABLE = "unreachable"


@dataclass
class TargetScene:
    """An immutable world: one mesh resting on (or above) a table plane.

    floor_mode chooses what a probe miss records: "table" takes the
    table plane as the contact (the physical rig would touch it),
    "skip" records nothing and leaves a hole in the grid.  `top` is the
    highest vertex z, a Python float.
    """

    mesh: TriangleMesh
    table_z: float = 0.0
    floor_mode: str = "table"

    def __post_init__(self):
        if self.floor_mode not in FLOOR_MODES:
            raise ConfigError(
                f"floor_mode must be one of {FLOOR_MODES}, got {self.floor_mode!r}"
            )
        if not math.isfinite(self.table_z):
            raise ConfigError(f"table_z must be finite, got {self.table_z}")
        tris = self.mesh.vertices
        if tris.size == 0:
            raise ConfigError("scene mesh is empty")
        # NaN fails both comparisons; min and max allocate no temporary.
        # Python floats: a float32 would round the other side to float32.
        if not (-MAX_COORDINATE <= float(tris.min()) and float(tris.max()) <= MAX_COORDINATE):
            raise ConfigError(
                f"scene mesh has non-finite coordinates or ones past {MAX_COORDINATE:g} mm"
            )
        heights = tris[:, :, 2]
        low, self.top = float(heights.min()), float(heights.max())
        if low < self.table_z - 1e-6:
            raise ConfigError(
                f"mesh dips {self.table_z - low:.6g} mm below the table plane"
            )
        # The facet index (see the module docstring); `_start[c]` is where
        # cell c's run of facet ids begins in `_ids`.
        boxes = _padded_boxes(tris)
        lo_x, lo_y, hi_x, hi_y = boxes
        limit = math.ceil(math.sqrt(len(tris)))
        self._grid = (*_axis_cells(lo_x, hi_x, limit), *_axis_cells(lo_y, hi_y, limit))
        ox, _, cx, nx, oy, _, cy, ny = self._grid
        keys = (
            np.fmin(((lo_x + hi_x) / 2.0 - ox) / cx, nx - 1).astype(np.int64) * ny
            + np.fmin(((lo_y + hi_y) / 2.0 - oy) / cy, ny - 1).astype(np.int64)
        )
        self._ids = np.argsort(keys, kind="stable").astype(np.int32)
        self._start = np.concatenate(([0], np.bincount(keys, minlength=nx * ny).cumsum()))
        del keys
        # `_boxes` holds the padded boxes in `_ids` order as four rows, lo x,
        # lo y, -hi x and -hi y: a ray at (x, y) is in a box where its
        # column is <= (x, y, -x, -y).
        np.negative(boxes[2:], out=boxes[2:])
        for row in boxes:  # in place: a build holds one table of boxes
            row.take(self._ids, out=row)
        self._boxes = boxes
        # What a ray reads, as zero-copy memoryviews, whose items are
        # Python ints and floats: the offsets, the ids, the four box rows
        # and the flat vertices (a copy only where `tris` is strided).
        self._walk = tuple(
            map(memoryview, (self._start, self._ids, *self._boxes, tris.reshape(-1)))
        )


def _padded_boxes(tris: np.ndarray) -> np.ndarray:
    """The xy boxes of the facets, padded by BBOX_PAD, as four rows: lo x,
    lo y, hi x and hi y, a column per facet."""
    boxes = np.empty((4, len(tris)))
    for axis in (0, 1):
        a, b, c = tris[:, 0, axis], tris[:, 1, axis], tris[:, 2, axis]
        np.minimum(np.minimum(a, b), c, out=boxes[axis])
        np.maximum(np.maximum(a, b), c, out=boxes[axis + 2])
    boxes[:2] -= BBOX_PAD  # in float64, whatever the vertices' dtype
    boxes[2:] += BBOX_PAD
    return boxes


def _axis_cells(lo: np.ndarray, hi: np.ndarray, limit: int) -> tuple:
    """(start, end, cell size, cell count) of one axis of the facet index.

    The cells cover [start, end], the extent of the boxes (lo, hi); there
    are at most `limit` of them, each at least as wide as the widest box.
    An axis too narrow or too wide to divide is one cell of infinite size.
    """
    start, end = float(lo.min()), float(hi.max())
    span, width = end - start, float((hi - lo).max())
    count = int(min(limit, span / width)) if 0.0 < width <= span < math.inf else 1
    return start, end, (max(span / count, width) if count > 1 else math.inf), count


def raycast_down(x: float, y: float, scene: TargetScene):
    """Highest z where the vertical line at (x, y) pierces the mesh.

    Returns None when no triangle covers the point.  Edge and vertex
    grazes count as hits; degenerate (edge-on) triangles never do.
    The facets indexed in the 3x3 cells around (x, y) are walked in
    index order, run by run; those whose padded box holds the point are
    tested with the arithmetic of a test of every facet, and the first
    facet met keeps a tie, so the result is the same bit for bit.
    """
    x, y = float(x), float(y)
    ox, x_hi, cx, nx, oy, y_hi, cy, ny = scene._grid
    if not (ox <= x <= x_hi and oy <= y <= y_hi):  # NaN lands here too
        return None
    i = int(min(nx - 1, (x - ox) / cx))
    k = int(min(ny - 1, (y - oy) / cy))
    first, last = max(k - 1, 0), min(k + 1, ny - 1) + 1
    start, ids, lo_x, lo_y, neg_hi_x, neg_hi_y, verts = scene._walk
    neg_x, neg_y = -x, -y
    best = None
    for row in range(max(i - 1, 0) * ny, min(i + 2, nx) * ny, ny):
        for j in range(start[row + first], start[row + last]):
            if not (
                lo_x[j] <= x and lo_y[j] <= y and neg_hi_x[j] <= neg_x and neg_hi_y[j] <= neg_y
            ):
                continue
            f = 9 * ids[j]
            x1, y1, z1, x2, y2, z2, x3, y3, z3 = verts[f : f + 9].tolist()
            e1x, e1y, e2x, e2y = x2 - x1, y2 - y1, x3 - x1, y3 - y1
            det = e1x * e2y - e1y * e2x
            if not abs(det) > DEGENERATE_DET:
                continue
            rx, ry = x - x1, y - y1
            u = (rx * e2y - ry * e2x) / det
            v = (ry * e1x - rx * e1y) / det
            if u >= -EDGE_TOL and v >= -EDGE_TOL and u + v <= 1.0 + EDGE_TOL:
                z = z1 + u * (z2 - z1) + v * (z3 - z1)
                if best is None or z > best:
                    best = z
    return best


# numpy's SeedSequence hash constants and PCG64 multiplier (NEP 19 keeps
# them stable): `_pcg64_states` repeats `default_rng`'s seeding with them.
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Ordinals hashed together: a block, never a whole grid, sets the size
# of the uint32 columns and the Python-int lists.
NOISE_BLOCK = 4096


def _width(n: int) -> int:
    """How many 32-bit words SeedSequence reads from the int `n`: at
    least one, least significant first."""
    return max(1, (n.bit_length() + 31) // 32)


def _pcg64_states(seed: int, ordinals: list) -> list:
    """The PCG64 (state, inc) that `default_rng((seed, i))` starts from,
    for each ordinal i.

    SeedSequence's hashmix and mix run in uint32 columns, one per
    ordinal, over the ordinals with the same number of words; numpy
    arrays wrap without a warning where scalars would warn.  Then
    PCG64's set-seed runs in Python ints: state 0, one step, add the
    initial state, one step.
    """
    states = [None] * len(ordinals)
    groups = {}
    for j, i in enumerate(ordinals):
        groups.setdefault(_width(i), []).append(j)
    for width, columns in groups.items():
        entropy = [
            np.full(len(columns), seed >> 32 * q & _MASK32, dtype=np.uint32)
            for q in range(_width(seed))
        ]
        entropy += [
            np.array([ordinals[j] >> 32 * q & _MASK32 for j in columns], dtype=np.uint32)
            for q in range(width)
        ]
        # a pool word with no entropy word hashes a zero
        entropy += [np.zeros(len(columns), dtype=np.uint32)] * (4 - len(entropy))
        const = _INIT_A

        def hashmix(value):
            nonlocal const
            value = value ^ np.uint32(const)
            const = const * _MULT_A & _MASK32
            value = value * np.uint32(const)
            return value ^ (value >> 16)

        def mix(x, y):
            value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
            return value ^ (value >> 16)

        pool = [hashmix(value) for value in entropy[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for value in entropy[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(value))

        # generate_state(4, uint64): eight words, paired little-endian
        # into the seed's and the stream's high and low halves
        const, words = _INIT_B, []
        for q in range(8):
            value = pool[q % 4] ^ np.uint32(const)
            const = const * _MULT_B & _MASK32
            value = value * np.uint32(const)
            words.append((value ^ (value >> 16)).astype(np.uint64))
        halves = [(words[q + 1] << np.uint64(32) | words[q]).tolist() for q in range(0, 8, 2)]
        for j, high, low, inc_high, inc_low in zip(columns, *halves):
            inc = (inc_high << 65 | inc_low << 1 | 1) & _MASK128
            states[j] = (((inc + (high << 64 | low)) * _PCG64_MULT + inc) & _MASK128, inc)
    return states


@dataclass(frozen=True)
class NoiseModel:
    """Contact measurement error: z = true + sigma*N(0,1) + drift*index.

    Draws are keyed by (seed, contact_index): the Gaussian is the first
    `standard_normal()` of `default_rng((seed, contact_index))`, so the
    error at a given contact ordinal is a pure function of the
    configuration: reruns are bit-identical and errors at earlier
    indices never shift later ones.  `errors` takes many ordinals at
    once and seeds no generator per ordinal; `error_at` is its
    one-ordinal case.
    """

    sigma_contact: float = 0.0
    drift_per_contact: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("sigma_contact", "drift_per_contact"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sigma_contact < 0.0:
            raise ConfigError("sigma_contact must be non-negative")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    def errors(self, ordinals) -> np.ndarray:
        """The error at each of `ordinals` (a sequence of non-negative
        ints, such as a range), as a float64 array in the same order.

        Each is `sigma * g + drift * i` in Python floats, g the draw of
        ordinal i, or `0.0 + drift * i` with no draw when sigma is 0;
        an overflow gives inf or NaN without a warning.  The ordinals
        are seeded NOISE_BLOCK at a time.  One generator serves the
        call: it is set to each ordinal's PCG64 state in turn, through
        one state dict whose inner `state` and `inc` change per ordinal.
        """
        sigma, drift = self.sigma_contact, self.drift_per_contact
        out = np.empty(len(ordinals))
        generator = np.random.Generator(np.random.PCG64(0))
        bits = generator.bit_generator
        full = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
        inner = full["state"]
        for start in range(0, len(ordinals), NOISE_BLOCK):
            block = [int(i) for i in ordinals[start : start + NOISE_BLOCK]]
            if sigma > 0.0:
                values = []
                for i, (state, inc) in zip(block, _pcg64_states(int(self.seed), block)):
                    inner["state"], inner["inc"] = state, inc
                    bits.state = full
                    values.append(sigma * generator.standard_normal() + drift * i)
            else:
                values = [0.0 + drift * i for i in block]
            out[start : start + len(block)] = values
        return out

    def error_at(self, contact_index: int) -> float:
        return self.errors((contact_index,)).item(0)


def probe_contact(x: float, y: float, scene: TargetScene, error: float) -> tuple:
    """Simulate one touch at (x, y) whose measurement is off by `error`.

    Returns (kind, z_true, z_measured): kind is "mesh" or "table" with
    the height found and that height plus `error`, or "none" (a
    skip-mode miss) with both heights NaN.  The measured height is not
    finite where the error is not.
    """
    z = raycast_down(x, y, scene)
    if z is not None:
        kind = CONTACT_MESH
    elif scene.floor_mode == "table":
        z = scene.table_z
        kind = CONTACT_TABLE
    else:
        return CONTACT_NONE, math.nan, math.nan
    return kind, z, z + error
