"""Independent reference implementations used only by the test suite.

Everything here is deliberately written the slow, obvious way (explicit
4x4 matrix products, O(n*m) double loops, grid searches) so that the
package code is checked against arithmetic that shares none of its
shortcuts.  The exceptions are the plain forms of code that a faster
path replaced, kept so the fast path can be compared bit for bit.
"""

import math

import numpy as np
from scipy.spatial import cKDTree

from armscan.kinematics import (
    TOOL_DOWN_ROTATION,
    JointLimitError,
    Pose,
    UnreachableError,
    inverse_kinematics,
)
from armscan.motion import line_waypoints
from armscan.scene import BBOX_PAD, DEGENERATE_DET, EDGE_TOL


def _h_rotz(a):
    c, s = math.cos(a), math.sin(a)
    return np.array(
        [
            [c, -s, 0.0, 0.0],
            [s, c, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def _h_roty(a):
    c, s = math.cos(a), math.sin(a)
    return np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [-s, 0.0, c, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def _h_trans(x, y, z):
    m = np.eye(4)
    m[:3, 3] = (x, y, z)
    return m


def fk_reference(angles, geom):
    """Probe-tip frame as the plain product of the link transforms.

    Chain: base yaw and shoulder offset, shoulder pitch, upper arm,
    elbow pitch, forearm, pitch compensation keeping the wrist carrier
    z vertical, then the ZYZ wrist and the tool offset.
    """
    t1, t2, t3, t4, t5, t6 = angles
    m = _h_rotz(t1)
    m = m @ _h_trans(geom.l1, 0.0, geom.d1)
    m = m @ _h_roty(-t2)
    m = m @ _h_trans(0.0, 0.0, geom.l2)
    m = m @ _h_roty(t3)
    m = m @ _h_trans(0.0, 0.0, geom.d4)
    m = m @ _h_roty(t2 - t3)
    m = m @ _h_rotz(t4)
    m = m @ _h_roty(t5)
    m = m @ _h_rotz(t6)
    m = m @ _h_trans(0.0, 0.0, geom.d6)
    return m


def wrist_center_reference(angles, geom):
    """Joint-5 origin (end of the forearm) from the same chain."""
    t1, t2, t3 = angles[0], angles[1], angles[2]
    m = _h_rotz(t1)
    m = m @ _h_trans(geom.l1, 0.0, geom.d1)
    m = m @ _h_roty(-t2)
    m = m @ _h_trans(0.0, 0.0, geom.l2)
    m = m @ _h_roty(t3)
    m = m @ _h_trans(0.0, 0.0, geom.d4)
    return m[:3, 3]


def chamfer_brute(p, q):
    """Sum of directed mean nearest-neighbor distances, double loop."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = np.sqrt(((p[:, None, :] - q[None, :, :]) ** 2).sum(axis=2))
    return d.min(axis=1).mean() + d.min(axis=0).mean()


def chamfer_input_order(p, q):
    """(cd, forward_mean, backward_mean) from balanced, compact KD-trees
    queried in input order: the plain way to use a KD-tree, which
    `metrics.chamfer_distance` must equal bit for bit."""
    forward = cKDTree(q).query(p)[0].mean()
    backward = cKDTree(p).query(q)[0].mean()
    return forward + backward, forward, backward


def raycast_brute(x, y, triangles):
    """Highest z hit by the vertical ray at (x, y), or None.

    Scans every triangle with the 2D barycentric test; edge and vertex
    grazes (within 1e-12) count as hits.
    """
    best = None
    for tri in triangles:
        v1, v2, v3 = (np.asarray(v, dtype=float) for v in tri)
        d1 = v2[:2] - v1[:2]
        d2 = v3[:2] - v1[:2]
        det = d1[0] * d2[1] - d1[1] * d2[0]
        if abs(det) <= 1e-12:
            continue
        rx, ry = x - v1[0], y - v1[1]
        u = (rx * d2[1] - ry * d2[0]) / det
        v = (ry * d1[0] - rx * d1[1]) / det
        if u < -1e-12 or v < -1e-12 or u + v > 1.0 + 1e-12:
            continue
        z = v1[2] + u * (v2[2] - v1[2]) + v * (v3[2] - v1[2])
        if best is None or z > best:
            best = z
    return best


def raycast_all_facets(triangles, points):
    """The scene's raycast before its facet index, one height or None
    per (x, y) point: every facet's padded xy box masked for each ray,
    then the barycentric test on the survivors.  `scene.raycast_down`
    must equal it bit for bit.
    """
    tris = np.asarray(triangles, dtype=float).reshape(-1, 3, 3)
    _v1 = tris[:, 0, :]
    _e1 = tris[:, 1, :2] - tris[:, 0, :2]
    _e2 = tris[:, 2, :2] - tris[:, 0, :2]
    _dz1 = tris[:, 1, 2] - tris[:, 0, 2]
    _dz2 = tris[:, 2, 2] - tris[:, 0, 2]
    det = _e1[:, 0] * _e2[:, 1] - _e1[:, 1] * _e2[:, 0]
    _det = det
    _alive = np.abs(det) > DEGENERATE_DET
    xy = tris[:, :, :2]
    _box_lo = xy.min(axis=1) - BBOX_PAD
    _box_hi = xy.max(axis=1) + BBOX_PAD

    def raycast(x, y):
        cand = (
            _alive
            & (_box_lo[:, 0] <= x)
            & (x <= _box_hi[:, 0])
            & (_box_lo[:, 1] <= y)
            & (y <= _box_hi[:, 1])
        )
        if not cand.any():
            return None
        idx = np.nonzero(cand)[0]
        v1 = _v1[idx]
        rx = x - v1[:, 0]
        ry = y - v1[:, 1]
        det = _det[idx]
        u = (rx * _e2[idx, 1] - ry * _e2[idx, 0]) / det
        v = (ry * _e1[idx, 0] - rx * _e1[idx, 1]) / det
        inside = (u >= -EDGE_TOL) & (v >= -EDGE_TOL) & (u + v <= 1.0 + EDGE_TOL)
        if not inside.any():
            return None
        zs = v1[inside, 2] + u[inside] * _dz1[idx][inside] + v[inside] * _dz2[idx][inside]
        return float(zs.max())

    return [raycast(x, y) for x, y in points]


def sphere_grid_search(points, center_guess, span, steps):
    """Best-fit sphere by brute grid search over centers.

    For each candidate center the optimal radius in the least-squares
    sense (on the geometric residual) is the mean distance to the
    points, so only the center needs searching.
    """
    points = np.asarray(points, dtype=float)
    offsets = np.linspace(-span, span, steps)
    best = (math.inf, None, None)
    for dx in offsets:
        for dy in offsets:
            for dz in offsets:
                c = center_guess + np.array([dx, dy, dz])
                dists = np.linalg.norm(points - c, axis=1)
                r = dists.mean()
                sse = ((dists - r) ** 2).sum()
                if sse < best[0]:
                    best = (sse, c, r)
    return best[1], best[2]


def kasa_normal_equations(points):
    """Algebraic sphere fit solved via explicit normal equations."""
    points = np.asarray(points, dtype=float)
    a = np.column_stack([2.0 * points, np.ones(len(points))])
    b = (points**2).sum(axis=1)
    ata = a.T @ a
    sol = np.linalg.solve(ata, a.T @ b)
    center = sol[:3]
    radius = math.sqrt(sol[3] + center @ center)
    return center, radius


def sphere_probe_monte_carlo(directions, radius, sigma, trials, seed, chunk=100_000):
    """Expected mean diameter deviation of the noisy sphere probe.

    Each trial displaces every probe point radially by N(0, sigma),
    refits the sphere with the same normal equations as above (batched
    over trials, which is the only concession to speed), and averages
    the per-point 2|dist - r| deviations.  Returns the mean over all
    trials.
    """
    directions = np.asarray(directions, dtype=float)
    n = len(directions)
    rng = np.random.default_rng(seed)
    total = 0.0
    done = 0
    while done < trials:
        size = min(chunk, trials - done)
        radii = radius + sigma * rng.standard_normal((size, n))
        pts = radii[:, :, None] * directions[None, :, :]
        a = np.concatenate([2.0 * pts, np.ones((size, n, 1))], axis=2)
        b = (pts**2).sum(axis=2)
        ata = np.einsum("tij,tik->tjk", a, a)
        atb = np.einsum("tij,ti->tj", a, b)
        sol = np.linalg.solve(ata, atb[:, :, None])[:, :, 0]
        centers = sol[:, :3]
        fit_r = np.sqrt(sol[:, 3] + (centers**2).sum(axis=1))
        dist = np.linalg.norm(pts - centers[:, None, :], axis=2)
        dd = 2.0 * np.abs(dist - fit_r[:, None])
        total += dd.mean(axis=1).sum()
        done += size
    return total / trials


def triangulate_loop(cells, n_rows, n_cols):
    """Facet vertex triples of the two-triangle rule, cell by cell.

    cells[i][k] is an (x, y, z) point or None for a cell with no
    contact; a cell with any corner missing emits nothing.
    """
    facets = []
    for k in range(1, n_cols):
        for i in range(1, n_rows):
            q_ik, q_up = cells[i][k], cells[i - 1][k]
            q_diag, q_left = cells[i - 1][k - 1], cells[i][k - 1]
            if any(q is None for q in (q_ik, q_up, q_diag, q_left)):
                continue
            facets.append([q_ik, q_up, q_diag])
            facets.append([q_ik, q_diag, q_left])
    return np.array(facets, dtype=float).reshape(-1, 3, 3)


def plan_line_loop(start, end, geom):
    """`motion.plan_line` one waypoint at a time through the scalar IK.

    The first waypoint neither branch solves raises the scalar error,
    prefixed with the waypoint's index and position.
    """
    rows = []
    for i, pos in enumerate(line_waypoints(start, end)):
        where = f"waypoint {i} at ({pos[0]:.3f}, {pos[1]:.3f}, {pos[2]:.3f})"
        try:
            angles, _ = inverse_kinematics(Pose(TOOL_DOWN_ROTATION, pos), geom)
        except (UnreachableError, JointLimitError) as exc:
            raise type(exc)(f"{where}: {exc}") from None
        rows.append(angles)
    return np.array(rows, dtype=float).reshape(-1, 6)
