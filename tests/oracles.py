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

from armscan import motion
from armscan.kinematics import (
    ACOS_CLAMP_TOL,
    ConfigError,
    ELBOW_STRAIGHT_INTERIOR,
    JOINT_LIMITS,
    LIMIT_GRACE,
    MIN_CHORD,
    SHOULDER_ELEVATION_OFFSET,
    TOOL_DOWN_ROTATION,
    WRIST_SINGULAR_TOL,
    JointAngles,
    JointLimitError,
    RobotGeometry,
    UnreachableError,
    check_limits,
    normalize_angle,
)
from armscan.meshio import PointCloud
from armscan.metrics import check_sampling
from armscan.motion import CSV_HEADER
from armscan.scene import (
    BBOX_PAD,
    CONTACT_MESH,
    CONTACT_NONE,
    CONTACT_TABLE,
    CONTACT_UNREACHABLE,
    DEGENERATE_DET,
    EDGE_TOL,
    probe_contact,
)


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


def radial_reference(angles, geom):
    """In-plane distance (mm) from the shoulder to the wrist center along
    the base yaw: the `wrist_center_reference` point projected on theta1's
    direction, minus `l1`.  Negative on the back-reaching branch, where
    the wrist center lies behind the shoulder."""
    t1 = angles[0]
    center = wrist_center_reference(angles, geom)
    return center[0] * math.cos(t1) + center[1] * math.sin(t1) - geom.l1


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
    grazes (within 1e-12) count as hits.  Each triangle is three
    (x, y, z) triples; nested lists of floats run fastest.
    """
    best = None
    for (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) in triangles:
        d1x, d1y = x2 - x1, y2 - y1
        d2x, d2y = x3 - x1, y3 - y1
        det = d1x * d2y - d1y * d2x
        if abs(det) <= 1e-12:
            continue
        rx, ry = x - x1, y - y1
        u = (rx * d2y - ry * d2x) / det
        v = (ry * d1x - rx * d1y) / det
        if u < -1e-12 or v < -1e-12 or u + v > 1.0 + 1e-12:
            continue
        z = z1 + u * (z2 - z1) + v * (z3 - z1)
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


def noise_reference(noise, index):
    """`NoiseModel.error_at` with a generator seeded per contact: the
    first `standard_normal()` of `default_rng((seed, index))`, scaled,
    plus the drift, all in Python floats; no draw when sigma is 0."""
    gauss = 0.0
    if noise.sigma_contact > 0.0:
        rng = np.random.default_rng((noise.seed, index))
        gauss = noise.sigma_contact * rng.standard_normal()
    return gauss + noise.drift_per_contact * index


def ik_point_reference(rot: list, geom: RobotGeometry) -> tuple:
    """The closed form point by point, as `kinematics` solved it before its
    path kernel shared a run's wrist half: set up once for one rotation,
    `rot` as nested floats.

    Reads the link lengths, the tip-to-wrist offset along the approach
    (column 3) and the joint limits widened by LIMIT_GRACE once, the
    limits from JOINT_LIMITS as it stands now.  Returns (solve, branch):

    - ``solve(x, y, z)`` gives the six joint angles of the tip at
      (x, y, z) as a tuple, from both yaw branches, the aimed one winning;
    - ``branch(theta1, radial, z)`` is one yaw branch, `radial` being the
      wrist center's in-plane distance from the shoulder along
      `theta1`'s direction and `z` its height above the shoulder (mm).
    """
    d1, l1, l2, d4 = geom.d1, geom.l1, geom.l2, geom.d4
    sides, twice = l2 * l2 + d4 * d4, 2.0 * l2 * d4
    (r11, _, r13), (r21, _, r23), (m31, m32, m33) = rot
    off_x, off_y, off_z = geom.d6 * r13, geom.d6 * r23, geom.d6 * m33
    g = LIMIT_GRACE
    (lo1, hi1), (lo2, hi2), (lo3, hi3), (lo4, hi4), (lo5, hi5), (lo6, hi6) = [
        (lo - g, hi + g) for lo, hi in JOINT_LIMITS
    ]

    def branch(theta1: float, radial: float, z: float) -> tuple:
        chord = math.hypot(radial, z)
        if chord < MIN_CHORD:
            raise UnreachableError("wrist center coincides with the shoulder")
        alpha = math.atan2(z, radial)

        cosine = (sides - chord * chord) / twice
        if not -1.0 - ACOS_CLAMP_TOL <= cosine <= 1.0 + ACOS_CLAMP_TOL:
            raise UnreachableError(
                f"elbow triangle (chord {chord:.3f} mm, annulus "
                f"[{abs(l2 - d4):.3f}, {l2 + d4:.3f}]): "
                f"cosine argument {cosine:.6f} outside [-1, 1]"
            )
        interior = math.acos(min(1.0, max(-1.0, cosine)))
        theta3 = ELBOW_STRAIGHT_INTERIOR - interior
        # Shoulder angle from the solved elbow angle rather than a second
        # acos: the pair then closes the triangle exactly, which keeps the
        # round trip tight even at the stretched (interior = pi) boundary
        # where independent acos calls are ill-conditioned.
        beta = math.atan2(d4 * math.sin(theta3), l2 + d4 * math.cos(theta3))

        theta2 = normalize_angle(alpha + beta - SHOULDER_ELEVATION_OFFSET)

        # Wrist: ZYZ angles of the rotation seen from the (vertical-z) carrier.
        c1, s1 = math.cos(theta1), math.sin(theta1)
        m13 = c1 * r13 + s1 * r23
        m23 = -s1 * r13 + c1 * r23
        m11 = c1 * r11 + s1 * r21
        m21 = -s1 * r11 + c1 * r21

        # atan2 keeps the tilt relative-accurate where acos(m33) would
        # round tiny tilts to zero and drop a d6-scaled tip offset
        sin5 = math.hypot(m13, m23)
        theta5 = math.atan2(sin5, m33)
        if sin5 <= WRIST_SINGULAR_TOL:
            theta4 = 0.0
            if m33 > 0.0:
                theta5 = 0.0
                theta6 = math.atan2(m21, m11)
            else:
                theta5 = math.pi
                theta6 = math.atan2(m21, -m11)
        else:
            theta4 = normalize_angle(math.atan2(m23, m13))
            theta6 = math.atan2(m32, -m31)
        theta6 = normalize_angle(theta6)

        # One chained comparison per joint; a NaN fails it, and
        # check_limits names the offending joint.
        angles = (theta1, theta2, theta3, theta4, theta5, theta6)
        if not (
            lo1 <= theta1 <= hi1
            and lo2 <= theta2 <= hi2
            and lo3 <= theta3 <= hi3
            and lo4 <= theta4 <= hi4
            and lo5 <= theta5 <= hi5
            and lo6 <= theta6 <= hi6
        ):
            check_limits(angles)
        return angles

    def solve(x: float, y: float, z: float) -> tuple:
        # wrist center: the tip backed off d6 along the approach
        xc = x - off_x
        yc = y - off_y
        height = z - off_z - d1  # above the shoulder
        azimuth = math.atan2(yc, xc)
        planar = math.hypot(xc, yc)

        try:
            return branch(azimuth, planar - l1, height)
        except UnreachableError as aimed_error:
            try:
                return branch(normalize_angle(azimuth + math.pi), -planar - l1, height)
            except UnreachableError:
                # a NaN fails the reach test, beside an infinite coordinate too
                if math.isnan(x) or math.isnan(y) or math.isnan(z):
                    raise ValueError("target position is not finite") from None
                raise aimed_error from None

    return solve, branch


def line_waypoints_reference(start, end):
    """`motion.line_waypoints` as an (N, 3) array: `start + t * d` over
    `t = arange(n + 1) / n`, with `motion.STEP` read at the call."""
    start = np.asarray(start, dtype=float)
    d = np.asarray(end, dtype=float) - start
    length = math.sqrt(d.dot(d))  # np.linalg.norm's arithmetic on a vector
    if length < 1e-12:
        return start[None, :].copy()
    intervals = max(1, math.ceil(length / motion.STEP - 1e-9))
    t = np.arange(intervals + 1) / intervals
    return start + t[:, None] * d


def plan_line_loop(waypoints, geom):
    """`motion.plan_line` one waypoint at a time through
    `ik_point_reference`: a list with the JointAngles of each waypoint.

    The first waypoint neither branch solves raises the scalar error,
    prefixed with the waypoint's index and position.
    """
    solve, _ = ik_point_reference(TOOL_DOWN_ROTATION.tolist(), geom)
    rows = []
    for i, pos in enumerate(np.asarray(waypoints, dtype=float).reshape(-1, 3)):
        where = f"waypoint {i} at ({pos[0]:.3f}, {pos[1]:.3f}, {pos[2]:.3f})"
        try:
            rows.append(JointAngles(*solve(*pos.tolist())))
        except (UnreachableError, JointLimitError) as exc:
            raise type(exc)(f"{where}: {exc}") from None
    return rows


def _leg(start, end, geom):
    """The (N, 6) angles of one straight leg, waypoint by waypoint."""
    rows = plan_line_loop(line_waypoints_reference(start, end), geom)
    return np.array(rows, dtype=float).reshape(-1, 6)


def _tip_band(geom):
    """(lowest, highest) tool-down tip height the descent may aim at:
    the wrist center d6 above the tip, at most l2 + d4 from the
    shoulder's height d1, widened by `motion.STEP`."""
    slack = geom.l2 + geom.d4 + motion.STEP
    return geom.d1 - geom.d6 - slack, geom.d1 - geom.d6 + slack


def probe_cycle_per_leg(x, y, *, safe_z, geom, scene, error, from_xy=None):
    """`motion.probe_cycle` as two solves, one per leg, through `plan_line_loop`.

    The lateral leg is planned first and its failure ends the cycle
    before the contact is taken; then the contact, the reach bound on
    its height, and the descent: to the table on a miss, to the
    measured height on a touch.  The retract is the descent reversed
    less its contact row; a failed cycle is (CONTACT_UNREACHABLE, nan,
    nan) with the lateral rows alone.
    """
    lateral = np.zeros((0, 6))
    try:
        if from_xy is not None:
            lateral = _leg((*from_xy, safe_z), (x, y, safe_z), geom)
        contact = probe_contact(x, y, scene, error)
        z_stop = scene.table_z if contact[0] == CONTACT_NONE else contact[2]
        low, high = _tip_band(geom)
        if not low <= z_stop <= high:
            raise UnreachableError(f"contact height {z_stop:g} mm is out of reach")
        descend = _leg((x, y, safe_z), (x, y, z_stop), geom)
    except UnreachableError:
        return (CONTACT_UNREACHABLE, math.nan, math.nan), lateral
    retract = descend[-2::-1]
    if from_xy is not None:
        descend = descend[1:]
    return contact, np.concatenate([lateral, descend, retract])


def probe_order(grid):
    """The (i, k) cells of `grid` in probe order, ascending row within
    ascending column: cell (i, k) is contact ordinal k * n_rows + i."""
    return [(i, k) for k in range(grid.n_cols) for i in range(grid.n_rows)]


def scan_reference(grid, geom, scene, noise, flip_normals=False):
    """`scanner.run_scan` cell by cell, for a grid that passes its checks.

    Returns (kinds, z_true, z_measured, angles, facets): the three
    (n_rows, n_cols) cell arrays, the trace's (N, 6) joint angles and
    the mesh's (F, 3, 3) facet vertices.  Each cell, in column-major
    order, takes its contact from `raycast_all_facets` (a miss is the
    table in table mode, no height in skip mode) plus `noise_reference`
    at its ordinal, then plans the lateral leg from the previous cell
    and the descent to the contact (the table on a skip-mode miss) with
    `plan_line_loop`.  A descent aimed outside the tool-down tip band,
    or at a height that is not finite, fails unplanned.  The retract is
    the descent reversed less its contact row.  The descent drops the
    row it shares with the lateral leg; the lateral leg keeps the row
    the previous cell ended on.  A leg that fails marks the cell
    unreachable with no heights, and the cell keeps only its lateral
    rows.
    """
    xs, ys = (a.tolist() for a in grid.axes())
    order = probe_order(grid)
    hits = raycast_all_facets(scene.mesh.vertices, [(xs[i], ys[k]) for i, k in order])
    low, high = _tip_band(geom)
    shape = (grid.n_rows, grid.n_cols)
    kinds = np.full(shape, CONTACT_UNREACHABLE)
    z_true, z_measured = np.full(shape, np.nan), np.full(shape, np.nan)
    cells = [[None] * grid.n_cols for _ in range(grid.n_rows)]
    rows = []
    previous = None
    for (i, k), z in zip(order, hits):
        x, y, safe_z = xs[i], ys[k], grid.safe_z
        if z is not None:
            kind = CONTACT_MESH
        elif scene.floor_mode == "table":
            kind, z = CONTACT_TABLE, scene.table_z
        else:
            kind = CONTACT_NONE
        measured = math.nan if z is None else z + noise_reference(noise, k * grid.n_rows + i)
        try:
            lateral = np.zeros((0, 6))
            if previous is not None:
                lateral = _leg((*previous, safe_z), (x, y, safe_z), geom)
            bottom = scene.table_z if kind == CONTACT_NONE else measured
            if not low <= bottom <= high:
                raise UnreachableError(f"descent to {bottom} mm is out of reach")
            descent = _leg((x, y, safe_z), (x, y, bottom), geom)
        except (UnreachableError, JointLimitError):
            rows.append(lateral)
        else:
            kinds[i, k] = kind
            if z is not None:
                z_true[i, k], z_measured[i, k] = z, measured
                cells[i][k] = (x, y, measured)
            first = 0 if previous is None else 1
            rows += [lateral, descent[first:], descent[-2::-1]]
        previous = (x, y)
    facets = triangulate_loop(cells, grid.n_rows, grid.n_cols)
    if flip_normals:
        facets = facets[:, [0, 2, 1]]
    return kinds, z_true, z_measured, np.concatenate(rows), facets


def trace_csv_reference(angles):
    """`JointTrace.to_csv` as one format string over the whole table,
    every row formatted where it stands, waypoint column included."""
    angles = np.asarray(angles, dtype=float).reshape(-1, 6)
    table = np.column_stack([np.arange(len(angles)), np.degrees(angles)])
    row = "%d" + ",%.6f" * 6 + "\n"
    return CSV_HEADER + (row * len(angles)) % tuple(table.ravel().tolist())


def sample_mesh_surface_reference(mesh, count, seed=0):
    """`metrics.sample_mesh_surface` as one whole-array build: every
    gather, flip and sum over all `count` points at once."""
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

    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(areas), size=count, p=areas / total)
    u = rng.random(count)
    v = rng.random(count)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    pts = tris[chosen, 0] + u[:, None] * edge1[chosen] + v[:, None] * edge2[chosen]
    return PointCloud(pts)
