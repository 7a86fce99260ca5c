"""Independent reference implementations used only to check the library.

Everything here is deliberately written from first principles (exact 2-d
hull, exhaustive loops, Monte Carlo measures, solid-angle formulas) so the
tests never share code paths with the implementations they verify.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def monotone_chain_indices(points: np.ndarray) -> set[int]:
    """Indices of the 2-d convex hull vertices (Andrew's monotone chain)."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n <= 2:
        return set(range(n))
    order = sorted(range(n), key=lambda i: (pts[i, 0], pts[i, 1]))

    def cross(o, a, b):
        return (pts[a, 0] - pts[o, 0]) * (pts[b, 1] - pts[o, 1]) - (
            pts[a, 1] - pts[o, 1]
        ) * (pts[b, 0] - pts[o, 0])

    lower: list[int] = []
    for i in order:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], i) <= 0:
            lower.pop()
        lower.append(i)
    upper: list[int] = []
    for i in reversed(order):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], i) <= 0:
            upper.pop()
        upper.append(i)
    return set(lower[:-1] + upper[:-1])


def naive_sketch_counts(points: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Win counts by a first-occurrence argmax over every point, scored as
    ``directions @ points.T`` 16 directions at a time: the orientation the
    kernel documents as its reference, so both round every score alike."""
    winners = [
        np.argmax(directions[j : j + 16] @ points.T, axis=1) for j in range(0, len(directions), 16)
    ]
    return np.bincount(np.concatenate(winners), minlength=len(points))


def lp_extreme_indices(points: np.ndarray, tol: float = 1e-8) -> set[int]:
    """Extreme rows by linear programming, smallest index per repeated row.

    Row i is extreme iff it is not a convex combination of the rows that
    differ from it: the LP ``min sum(s+ + s-)`` over ``lam >= 0``,
    ``sum(lam) = 1``, ``others.T @ lam + s+ - s- = x_i`` gives the L1
    distance from x_i to their hull, compared with ``tol`` times the
    cloud's largest extent.
    """
    from scipy.optimize import linprog

    pts = np.asarray(points, dtype=float)
    n, dim = pts.shape
    extent = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    if extent == 0.0:
        return {0}
    pts = (pts - pts.min(axis=0)) / extent
    out = set()
    for i in range(n):
        same = np.all(pts == pts[i], axis=1)
        if np.argmax(same) < i:  # a copy with a smaller index speaks for this row
            continue
        others = pts[~same]
        m = len(others)
        cost = np.concatenate([np.zeros(m), np.ones(2 * dim)])
        a_eq = np.zeros((dim + 1, m + 2 * dim))
        a_eq[:dim, :m] = others.T
        a_eq[:dim, m:m + dim] = np.eye(dim)
        a_eq[:dim, m + dim:] = -np.eye(dim)
        a_eq[dim, :m] = 1.0
        b_eq = np.concatenate([pts[i], [1.0]])
        res = linprog(
            cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
            options={"primal_feasibility_tolerance": 1e-10,
                     "dual_feasibility_tolerance": 1e-10},
        )
        assert res.status == 0, res.message
        if res.fun > tol:
            out.add(i)
    return out


def hull_polygon_ccw(points: np.ndarray) -> list[int]:
    """2-d hull vertex indices in counter-clockwise polygon order."""
    idx = monotone_chain_indices(points)
    pts = np.asarray(points, dtype=float)
    centre = pts[list(idx)].mean(axis=0)
    return sorted(idx, key=lambda i: math.atan2(pts[i, 1] - centre[1], pts[i, 0] - centre[0]))


def polygon_vertex_curvatures(points: np.ndarray) -> dict[int, float]:
    """Exterior angle fraction (turn angle / 2 pi) of each 2-d hull vertex."""
    ring = hull_polygon_ccw(points)
    pts = np.asarray(points, dtype=float)
    k = len(ring)
    out = {}
    for t, i in enumerate(ring):
        prev_pt = pts[ring[(t - 1) % k]]
        here = pts[i]
        next_pt = pts[ring[(t + 1) % k]]
        v_in = here - prev_pt
        v_out = next_pt - here
        a_in = math.atan2(v_in[1], v_in[0])
        a_out = math.atan2(v_out[1], v_out[0])
        turn = (a_out - a_in) % (2 * math.pi)
        out[i] = turn / (2 * math.pi)
    return out


def _triangle_solid_angle(r1, r2, r3) -> float:
    """Van Oosterom-Strackee solid angle of a spherical triangle."""
    num = abs(float(np.dot(r1, np.cross(r2, r3))))
    den = 1.0 + float(np.dot(r1, r2)) + float(np.dot(r2, r3)) + float(np.dot(r3, r1))
    return 2.0 * math.atan2(num, den)


def normal_cone_curvature_3d(vertex: np.ndarray, others: np.ndarray) -> float:
    """Relative curvature of ``vertex`` in CH({vertex} | others), dimension 3.

    The normal cone is ``{d : (vertex - w) . d >= 0 for all w}``; its extreme
    rays are cross products of active constraint pairs, and the spherical
    polygon they cut out is fan-triangulated for the solid angle.
    """
    a = vertex - np.asarray(others, dtype=float)  # constraint normals, a . d >= 0
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    k = len(a)
    rays = []
    for i in range(k):
        for j in range(i + 1, k):
            r = np.cross(a[i], a[j])
            nrm = np.linalg.norm(r)
            if nrm < 1e-12:
                continue
            r = r / nrm
            for cand in (r, -r):
                if np.all(a @ cand >= -1e-10):
                    rays.append(cand)
    if not rays:
        return 0.0
    rays = np.asarray(rays)
    uniq = []
    for r in rays:
        if not any(np.dot(r, u) > 1.0 - 1e-9 for u in uniq):
            uniq.append(r)
    if len(uniq) < 3:
        return 0.0
    rays = np.asarray(uniq)
    axis = rays.mean(axis=0)
    axis /= np.linalg.norm(axis)
    ref = np.cross(axis, rays[0])
    if np.linalg.norm(ref) < 1e-12:
        ref = np.cross(axis, rays[1])
    ref /= np.linalg.norm(ref)
    ref2 = np.cross(axis, ref)
    ang = np.arctan2(rays @ ref2, rays @ ref)
    ordered = rays[np.argsort(ang)]
    total = 0.0
    for t in range(1, len(ordered) - 1):
        total += _triangle_solid_angle(ordered[0], ordered[t], ordered[t + 1])
    return total / (4.0 * math.pi)


def halfplane_vertices(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Vertices of the 2-d intersection ``normals @ x <= offsets``.

    Every pairwise crossing of the boundary lines, kept when it meets every
    constraint in exact rational arithmetic (the floats are converted
    exactly).  O(M^3) Fraction operations, so small M only.
    """
    a = [(Fraction(x), Fraction(y)) for x, y in np.asarray(normals, dtype=float)]
    b = [Fraction(v) for v in np.asarray(offsets, dtype=float)]
    found = set()
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            det = a[i][0] * a[j][1] - a[i][1] * a[j][0]
            if det == 0:
                continue
            x = (b[i] * a[j][1] - b[j] * a[i][1]) / det
            y = (a[i][0] * b[j] - a[j][0] * b[i]) / det
            if all(ax * x + ay * y <= bk for (ax, ay), bk in zip(a, b)):
                found.add((x, y))
    return np.array([[float(x), float(y)] for x, y in found])


def polygon_distance(x: np.ndarray, points: np.ndarray) -> float:
    """Distance from ``x`` to the convex hull of 2-d ``points``: 0 inside,
    else the distance to the nearest hull edge."""
    pts = np.asarray(points, dtype=float)[hull_polygon_ccw(points)]
    inside, best = True, math.inf
    for p, q in zip(pts, np.roll(pts, -1, axis=0)):
        e, w = q - p, x - p
        inside &= e[0] * w[1] - e[1] * w[0] >= 0  # left of every ccw edge
        t = min(1.0, max(0.0, float(w @ e) / float(e @ e)))
        best = min(best, float(np.linalg.norm(w - t * e)))
    return 0.0 if inside else best


def mc_cap_fraction(theta: float, n: int, samples: int, seed: int) -> float:
    """Monte Carlo relative measure of {w on S^(n-1) : w . pole >= cos theta}."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((samples, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return float(np.mean(g[:, 0] >= math.cos(theta)))


def support_gap(outer, ref, probes) -> float:
    """Support-gap estimate ``max_d h_outer(d) - h_ref(d)``, floored at 0.

    Built from the library's support functions, which other tests check on
    their own, so that 2-d outer hulls, whose ``outer_error`` is exact, can
    still be compared with the estimate.
    """
    from hullsketch.metrics import _outer_support, probe_support

    h_out = _outer_support(outer, probes, ref.points.mean(axis=0))
    return float(np.max(h_out - probe_support(ref, probes), initial=0.0))


def satisfies(outer, points) -> bool:
    """Whether every row of ``points`` meets every halfspace of ``outer``
    to within 1e-9."""
    margins = np.atleast_2d(points) @ outer.normals.T - outer.offsets
    return bool(margins.max() <= 1e-9)


def grid_min_distance(x: np.ndarray, triangle: np.ndarray, steps: int = 400) -> float:
    """Brute-force distance from ``x`` to a filled triangle via barycentric grid."""
    best = math.inf
    v = np.asarray(triangle, dtype=float)
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            w0 = i / steps
            w1 = j / steps
            w2 = 1.0 - w0 - w1
            p = w0 * v[0] + w1 * v[1] + w2 * v[2]
            best = min(best, float(np.linalg.norm(p - x)))
    return best


def greedy_radius_clusters(points, kept, curvatures, beta, order="decreasing"):
    """Vertex compression by the plain greedy loop, with a flag per absorbed point.

    Walks ``kept`` by curvature (highest first for "decreasing", lowest
    first otherwise; ties by index); each point not yet absorbed becomes a
    representative and absorbs every other free point strictly closer than
    ``beta``.  Returns the representatives in walk order, their sorted
    member lists, and the representatives' (index, curvature) pairs in
    index order.
    """
    pts = np.asarray(points, dtype=float)
    sign = -1.0 if order == "decreasing" else 1.0
    walk = sorted(range(len(kept)), key=lambda i: (sign * curvatures[i], kept[i]))
    absorbed = [False] * len(kept)
    reps, members = [], {}
    for pos in walk:
        if absorbed[pos]:
            continue
        absorbed[pos] = True
        cluster = [int(kept[pos])]
        here = pts[kept[pos]]
        for other in range(len(kept)):
            if absorbed[other]:
                continue
            if math.sqrt(sum(float(d) * float(d) for d in pts[kept[other]] - here)) < beta:
                absorbed[other] = True
                cluster.append(int(kept[other]))
        reps.append(int(kept[pos]))
        members[int(kept[pos])] = sorted(cluster)
    curv_of = {int(k): float(c) for k, c in zip(kept, curvatures)}
    return reps, members, [(k, curv_of[k]) for k in sorted(reps)]
