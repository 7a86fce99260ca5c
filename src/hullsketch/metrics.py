"""Inner and outer error of an approximate hull against a reference hull.

Inner error is the farthest any reference vertex sits from the kept hull;
outer error is how far the halfspace hull reaches beyond the reference:
exactly in 2-d, as the farthest outer-hull vertex, and from 3-d on as the
largest support-function gap over sampled probe directions, which for
nested bodies converges to the Hausdorff distance as probes densify.

Up to 3-d the outer hull's vertices come from one Qhull halfspace
intersection (``scipy.spatial.HalfspaceIntersection``) around the reference
centroid, in a frame where the hull is round, so a thin hull keeps full
precision.  A polygon with M edges has at most M vertices and a 3-polytope
with M facets at most 2M - 4, so this takes M log M time and O(M) memory.
When the centroid is not safely inside every halfspace, 2-d retries once at
the Chebyshev centre (one HiGHS LP) and 3-d solves one support LP per probe
(``support_under_constraints``), as 4-d and up always do: there the vertex
count grows superlinearly in M (a 5-d simplex sketch with M = 70,000 gave
151k vertices after 35 s and ~800 MB on a 2-CPU Xeon, against 8.5 s for 20
LPs; at M = 5,000, 0.57 s against 1.48 s for 50 LPs).

``scipy.spatial`` and ``scipy.optimize`` are imported inside the functions
that call Qhull or HiGHS, so only a run that needs them pays for them.  Keep
any new scipy import function-local for the same reason.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .directions import DirectionSet
from .geometry import VertexPolytope, farthest_distance
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


class UnboundedOuterHullError(RuntimeError):
    """The halfspace intersection does not bound a finite polytope."""


class EmptyOuterHullError(RuntimeError):
    """The halfspaces have no point in common (in 2-d: no interior point)."""


@dataclass(frozen=True)
class OuterErrorResult:
    value: float
    method: str
    n_probes: int


def inner_error(true_extremes: VertexPolytope, inner: VertexPolytope) -> float:
    """Largest distance from a reference vertex to the hull of kept points.

    Only vertices of the reference need checking: the distance function to a
    convex set is convex, so its supremum over a polytope is attained at a
    vertex.  Both hulls are judged in the unit frame of the reference.
    """
    if true_extremes.dim != inner.dim:
        raise ValueError("dimension mismatch between reference and inner hull")
    return farthest_distance(true_extremes.vertices, inner, true_extremes.vertices)


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


def _centred(outer: OuterHull, origin: np.ndarray) -> tuple[OuterHull, float]:
    """``outer`` centred on ``origin`` and divided by the power of two that
    brings the largest slack into [1/2, 1), and that power.  HiGHS's
    tolerances are absolute (1e-7), so LPs in this frame do not depend on
    the cloud's units or position."""
    slack = outer.offsets - outer.normals @ origin
    unit = math.ldexp(1.0, math.frexp(float(np.abs(slack).max()))[1])
    return OuterHull(normals=outer.normals, offsets=slack / unit), unit


def _chebyshev_centre(outer: OuterHull, origin: np.ndarray) -> np.ndarray:
    """Centre of the largest disc in a 2-d halfspace intersection: one HiGHS
    LP, max r subject to n . x + r <= b (unit n), in the frame of :func:`_centred`."""
    from scipy.optimize import linprog

    centred, unit = _centred(outer, origin)
    a_ub = np.column_stack([outer.normals, np.ones(len(outer))])
    bounds = [(None, None), (None, None), (0, None)]
    res = linprog([0, 0, -1], A_ub=a_ub, b_ub=centred.offsets, bounds=bounds, method="highs")
    if res.status == 2:
        raise EmptyOuterHullError("outer hull is empty")
    if not res.success:
        raise RuntimeError(f"Chebyshev centre LP failed: {res.message}")
    if res.x[2] <= 0:
        raise EmptyOuterHullError("outer hull has no interior")
    return origin + unit * res.x[:2]


def _outer_vertices(outer: OuterHull, interior: np.ndarray) -> np.ndarray | None:
    """Vertices of a 2-d or 3-d halfspace intersection, by Qhull, around
    ``interior``; None when ``interior`` is not strictly inside every
    halfspace, sits too near one face, or Qhull rejects the input.

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

    Up to 3-d this is the max over the intersection's vertices, from one
    Qhull call around ``interior``.  When ``interior`` is not strictly inside
    every halfspace, or so near one face that Qhull's roundoff would eat half
    the digits, and in 4-d and up, each probe solves one support LP instead,
    in the frame of :func:`_centred` about ``interior``.
    """
    verts = _outer_vertices(outer, interior) if outer.dim <= 3 else None
    if verts is not None:
        return probe_support(VertexPolytope(verts), probes)
    centred, unit = _centred(outer, interior)
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
    densify.  ``h_outer`` comes from :func:`outer_support` about the
    reference centroid.  ``h_true`` may pass
    ``probe_support(true_extremes, probes)`` computed once for many outer
    hulls.  An unbounded intersection raises
    :class:`UnboundedOuterHullError`, an empty one (in 2-d also one with no
    interior) :class:`EmptyOuterHullError`.
    """
    if outer.dim != true_extremes.dim:
        raise ValueError("dimension mismatch")
    if outer.dim == 2:
        centroid = true_extremes.vertices.mean(axis=0)
        verts = _outer_vertices(outer, centroid)
        if verts is None:
            verts = _outer_vertices(outer, _chebyshev_centre(outer, centroid))
        if verts is None:
            raise EmptyOuterHullError("outer hull has no interior")
        value = farthest_distance(verts, true_extremes, true_extremes.vertices)  # as inner_error
        return OuterErrorResult(value, EXACT_2D, 0)
    if probes is None:
        raise ValueError("probe directions are required for the support-gap estimate")
    if probes.dim != outer.dim:
        raise ValueError("probe dimension mismatch")
    if h_true is None:
        h_true = probe_support(true_extremes, probes)
    h_out = outer_support(outer, probes, true_extremes.vertices.mean(axis=0))
    gap = float(np.max(h_out - h_true, initial=0.0))
    return OuterErrorResult(value=gap, method=SUPPORT_GAP, n_probes=len(probes))
