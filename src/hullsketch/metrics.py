"""Inner and outer error of an approximate hull against a reference hull.

Inner error is the farthest any reference vertex sits from the kept hull;
outer error is how far the halfspace hull can reach beyond the reference.
In two dimensions the outer error is computed exactly by enumerating the
constraint-intersection vertices; in higher dimensions it is estimated as
the largest support-function gap over sampled probe directions, which for
nested convex bodies converges to the Hausdorff distance as probes densify.

The outer hull's support value ``h_outer(d)`` comes from its vertices in
3-d: a 3-polytope with M facets has at most 2M - 4 vertices, so one Qhull
halfspace intersection (``scipy.spatial.HalfspaceIntersection``) turns every
probe into a max over a few hundred points.  Qhull runs in a frame where
the hull is round, so a thin hull keeps full precision.  Elsewhere each
probe solves one support LP (``support_under_constraints``, HiGHS): in 3-d
when the reference centroid is not safely inside every halfspace, and in
4-d and up.  There the vertex count grows superlinearly in M: a 5-d simplex
sketch with M = 70,000 gave 151k vertices after 35 s and ~800 MB on a
2-CPU Xeon, against 8.5 s for 20 LPs, while at M = 5,000 Qhull took 0.57 s
against 1.48 s for 50 LPs.  Which side wins in 4-5-d thus depends on M and
the probe count, and no benchmark workload measures it yet.

``scipy.spatial`` and ``scipy.optimize`` are imported inside ``_outer_vertices``
and ``support_under_constraints``, their only callers, so only a run that
needs Qhull or an LP pays for it.  Keep any new scipy import function-local
for the same reason.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .directions import DirectionSet
from .geometry import VertexPolytope, _unit_exponent, project_onto_hull
from .sketch import OuterHull

__all__ = [
    "EmptyOuterHullError",
    "OuterErrorResult",
    "UnboundedOuterHullError",
    "inner_error",
    "outer_error",
    "outer_support",
    "probe_support",
    "support_under_constraints",
]

EXACT_2D = "exact-2d"
SUPPORT_GAP = "support-gap-estimate"
# 2-d vertex enumeration keeps the crossings feasible to this fraction of the
# largest offset
_FEAS_TOL = 1e-7


class UnboundedOuterHullError(RuntimeError):
    """The halfspace intersection does not bound a finite polytope."""


class EmptyOuterHullError(RuntimeError):
    """The halfspaces have no point in common."""


@dataclass(frozen=True)
class OuterErrorResult:
    value: float
    method: str
    n_probes: int


def _scaled(poly: VertexPolytope, exponent: int) -> VertexPolytope:
    return VertexPolytope(np.ldexp(poly.vertices, -exponent))


def inner_error(true_extremes: VertexPolytope, inner: VertexPolytope) -> float:
    """Largest distance from a reference vertex to the hull of kept points.

    Only vertices of the reference need checking: the distance function to a
    convex set is convex, so its supremum over a polytope is attained at a
    vertex.  Both hulls are judged in the power-of-two frame of the
    reference's largest coordinate extent, so the projections' tolerance is
    relative to that extent.
    """
    if true_extremes.dim != inner.dim:
        raise ValueError("dimension mismatch between reference and inner hull")
    exponent = _unit_exponent(true_extremes.vertices)
    ref, kept = _scaled(true_extremes, exponent), _scaled(inner, exponent)
    worst = max(project_onto_hull(v, kept).distance for v in ref.vertices)
    return math.ldexp(worst, exponent)


def _outer_vertices_2d(outer: OuterHull) -> np.ndarray:
    """Enumerate the vertices of a bounded 2-d halfspace intersection.

    Intersects every constraint pair and keeps the crossings feasible to
    ``_FEAS_TOL`` times the largest offset.  Raises :class:`UnboundedOuterHullError`
    when the normals leave an angular gap of at least pi (then a recession
    direction exists).
    """
    normals = outer.normals
    offsets = outer.offsets
    angles = np.sort(np.arctan2(normals[:, 1], normals[:, 0]))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
    if gaps.max() >= np.pi - 1e-12:
        raise UnboundedOuterHullError("outer hull unbounded")

    m = len(outer)
    ii, jj = np.triu_indices(m, k=1)
    a1, a2 = normals[ii], normals[jj]
    b1, b2 = offsets[ii], offsets[jj]
    det = a1[:, 0] * a2[:, 1] - a1[:, 1] * a2[:, 0]
    ok = np.abs(det) > 1e-12
    a1, a2, b1, b2, det = a1[ok], a2[ok], b1[ok], b2[ok], det[ok]
    xs = (b1 * a2[:, 1] - b2 * a1[:, 1]) / det
    ys = (a1[:, 0] * b2 - a2[:, 0] * b1) / det
    cand = np.column_stack([xs, ys])
    scale = float(np.max(np.abs(offsets)))
    # blocked feasibility scan: the candidate-by-constraint matrix can reach
    # O(m^3) entries otherwise
    chunk = max(1, (1 << 24) // (8 * m))
    kept = []
    for c0 in range(0, cand.shape[0], chunk):
        part = cand[c0 : c0 + chunk]
        good = np.all(part @ normals.T - offsets <= _FEAS_TOL * scale, axis=1)
        if np.any(good):
            kept.append(part[good])
    if not kept:  # a bounded, nonempty polygon has a vertex
        raise EmptyOuterHullError("outer hull is empty")
    return np.vstack(kept)


def support_under_constraints(outer: OuterHull, d) -> float:
    """Support function of a halfspace intersection: ``max d . x`` subject to it."""
    from scipy.optimize import linprog

    d = np.asarray(d, dtype=np.float64)
    res = linprog(
        -d,
        A_ub=outer.normals,
        b_ub=outer.offsets,
        bounds=[(None, None)] * outer.dim,
        method="highs",
    )
    if res.status == 2:
        raise EmptyOuterHullError("outer hull is empty")
    if res.status == 3:
        raise UnboundedOuterHullError("outer hull unbounded")
    if not res.success:
        raise RuntimeError(f"support LP failed: {res.message}")
    return float(-res.fun)


def _outer_vertices(outer: OuterHull, interior: np.ndarray) -> np.ndarray | None:
    """Vertices of a 3-d halfspace intersection, by Qhull, around ``interior``;
    None when ``interior`` is not strictly inside every halfspace, sits too
    near one face, or Qhull rejects the input.

    Raises :class:`UnboundedOuterHullError` unless the origin lies strictly
    inside the hull of the normals (otherwise some direction ``y`` has
    ``n . y <= 0`` for every normal and the intersection recedes along it).
    """
    from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

    eps = np.finfo(float).eps
    # A computed facet offset of the unit normals' hull lies within a few eps
    # of its exact value; (dim + 1) eps with a factor of 4 to spare.
    margin = 4 * (outer.dim + 1) * eps
    try:
        normals_hull = ConvexHull(outer.normals)
    except QhullError:  # the normals are coplanar, or too few to span
        raise UnboundedOuterHullError("outer hull unbounded") from None
    if normals_hull.equations[:, -1].max() >= -margin:
        raise UnboundedOuterHullError("outer hull unbounded")
    slack = outer.offsets - outer.normals @ interior
    if not np.all(slack > 0):
        return None
    # Qhull works on the dual points n / slack, whose hull is the polar of the
    # outer hull about ``interior``.  A slab 1e-9 thick puts two of them 1e9
    # out on either side, and Qhull's roundoff, eps times the largest
    # coordinate, then merges away real vertices.  So scale each principal
    # axis of the dual points by its two-sided reach, the nearer of its two
    # extremes: in that frame a thin hull is round, and x = interior +
    # frame @ y maps its vertices back.  The origin is strictly inside the
    # dual points' hull (the check above), so every reach is positive.
    dual = outer.normals / slack[:, None]
    vt = np.linalg.svd(dual, full_matrices=False)[2]
    along = dual @ vt.T
    reach = np.minimum(along.max(axis=0), -along.min(axis=0))
    # An interior point near one face leaves one far dual point on one side
    # only, which no frame pulls in; keep the vertex path while Qhull's
    # roundoff there still spares half the digits.
    if (outer.dim + 1) * eps * np.abs(along / reach).max() > np.sqrt(eps):
        return None
    frame = (vt.T / reach) @ vt
    halfspaces = np.column_stack([outer.normals @ frame, -slack])
    try:
        verts = HalfspaceIntersection(halfspaces, np.zeros(outer.dim)).intersections
    except QhullError:
        return None
    return interior + verts @ frame


def probe_support(hull: VertexPolytope, probes: DirectionSet) -> np.ndarray:
    """``h(d) = max_v v . d`` of a vertex polytope along every probe.

    Judging many outer hulls against one reference, compute this once and
    pass it to :func:`outer_error` as ``h_true``.
    """
    return np.array([float(np.max(hull.vertices @ d)) for d in probes.directions])


def outer_support(outer: OuterHull, probes: DirectionSet, interior: np.ndarray) -> np.ndarray:
    """``h_outer(d)`` of a halfspace intersection along every probe.

    In 3-d this is the max over the intersection's vertices, from one Qhull
    call around ``interior``.  When ``interior`` is not strictly inside every
    halfspace, or so near one face that Qhull's roundoff would eat half the
    digits, and in 4-d and up, each probe solves one support LP instead.
    HiGHS's tolerances are absolute (1e-7), so the LPs run in coordinates
    centred on ``interior`` and divided by the power of two that brings the
    largest slack into [1/2, 1): the result does not depend on the cloud's
    units or position.
    """
    verts = _outer_vertices(outer, interior) if outer.dim == 3 else None
    if verts is not None:
        return probe_support(VertexPolytope(verts), probes)
    slack = outer.offsets - outer.normals @ interior
    unit = math.ldexp(1.0, math.frexp(float(np.abs(slack).max()))[1])
    centred = OuterHull(normals=outer.normals, offsets=slack / unit)
    h = np.array([support_under_constraints(centred, d) for d in probes.directions])
    return probes.directions @ interior + unit * h


def outer_error(
    outer: OuterHull,
    true_extremes: VertexPolytope,
    probes: DirectionSet | None = None,
    h_true: np.ndarray | None = None,
) -> OuterErrorResult:
    """Distance from the outer (halfspace) hull to the reference hull.

    Exact in dimension 2: the largest distance from a vertex of the outer
    hull to the reference, with ``probes`` unused.  Otherwise the support-gap
    estimate ``max_d h_outer(d) - h_true(d)`` over the probe set; since the
    bodies are nested it converges to the Hausdorff distance as probes
    densify.  ``h_outer`` is a max over the outer hull's vertices in 3-d,
    with the reference centroid as Qhull's interior point, and one LP per
    probe in 4-d and up or when that centroid is not safely inside every
    halfspace (see :func:`outer_support`).  ``h_true`` may pass
    ``probe_support(true_extremes, probes)`` computed once for many outer
    hulls.  An unbounded intersection raises
    :class:`UnboundedOuterHullError`, an empty one
    :class:`EmptyOuterHullError`.
    """
    if outer.dim != true_extremes.dim:
        raise ValueError("dimension mismatch")
    if outer.dim == 2:
        exponent = _unit_exponent(true_extremes.vertices)  # judged as in inner_error
        ref = _scaled(true_extremes, exponent)
        verts = np.ldexp(_outer_vertices_2d(outer), -exponent)
        value = max(project_onto_hull(v, ref).distance for v in verts)
        return OuterErrorResult(value=math.ldexp(value, exponent), method=EXACT_2D, n_probes=0)
    if probes is None:
        raise ValueError("probe directions are required for the support-gap estimate")
    if probes.dim != outer.dim:
        raise ValueError("probe dimension mismatch")
    if h_true is None:
        h_true = probe_support(true_extremes, probes)
    h_out = outer_support(outer, probes, true_extremes.vertices.mean(axis=0))
    gap = float(np.max(h_out - h_true, initial=0.0))
    return OuterErrorResult(value=gap, method=SUPPORT_GAP, n_probes=len(probes))
