"""Parametric target objects for scans and benchmarks.

The wing is a cambered four-digit-style airfoil section (6% camber at
40% chord, 9% thickness), extruded along the span and
laid flat: the mesh is the upper surface as a height field touching
z = 0 along its edges, which is what a top-probing scan can see.
"""

from __future__ import annotations

import math

import numpy as np

from .meshio import TriangleMesh

# The wing's shape: span and chord in mm; camber, the camber's
# chordwise position and thickness as fractions of the chord.
WING_SPAN = 150.0
WING_CHORD = 140.0
WING_CAMBER = 0.06
WING_CAMBER_POS = 0.4
WING_THICKNESS = 0.09


def make_plate(x0: float, y0: float, width: float, depth: float, z: float) -> TriangleMesh:
    """Flat rectangular plate at height z, two triangles."""
    a = [x0, y0, z]
    b = [x0 + width, y0, z]
    c = [x0 + width, y0 + depth, z]
    d = [x0, y0 + depth, z]
    return TriangleMesh.from_vertices([[a, b, c], [a, c, d]])


def _camber_line(s: float) -> float:
    if s < WING_CAMBER_POS:
        return WING_CAMBER / WING_CAMBER_POS**2 * (2.0 * WING_CAMBER_POS * s - s * s)
    return (
        WING_CAMBER
        / (1.0 - WING_CAMBER_POS) ** 2
        * ((1.0 - 2.0 * WING_CAMBER_POS) + 2.0 * WING_CAMBER_POS * s - s * s)
    )


def _half_thickness(s: float) -> float:
    return (
        5.0
        * WING_THICKNESS
        * (
            0.2969 * math.sqrt(s)
            - 0.1260 * s
            - 0.3516 * s * s
            + 0.2843 * s**3
            - 0.1015 * s**4
        )
    )


def wing_upper_surface(s: float) -> float:
    """Upper-surface height at chordwise fraction s in [0, 1]."""
    return WING_CHORD * (_camber_line(s) + _half_thickness(s))


def make_wing(
    x0: float, y0: float, n_span: int = 61, n_chord: int = 81
) -> TriangleMesh:
    """Wing upper surface over [x0, x0+WING_SPAN] x [y0, y0+WING_CHORD].

    Span stations are uniform; chord stations are cosine-spaced to
    resolve the blunt leading edge.  Heights are >= 0 everywhere and
    reach 0 at the leading edge, so the sheet rests on the table.
    """
    xs = np.linspace(x0, x0 + WING_SPAN, n_span)
    fractions = (1.0 - np.cos(np.linspace(0.0, math.pi, n_chord))) / 2.0
    ys = y0 + fractions * WING_CHORD
    zs = np.array([wing_upper_surface(s) for s in fractions])

    grid = np.stack(np.broadcast_arrays(xs[:, None], ys, zs), axis=-1)
    p00, p01 = grid[:-1, :-1], grid[:-1, 1:]
    p10, p11 = grid[1:, :-1], grid[1:, 1:]
    # Span-major, then chord: two facets per cell, (p00, p10, p11) first.
    facets = np.stack(
        [np.stack([p00, p10, p11], axis=-2), np.stack([p00, p11, p01], axis=-2)],
        axis=2,
    )
    return TriangleMesh.from_vertices(facets)
