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
When the centroid is not safely inside every halfspace, Qhull runs once more
around the Chebyshev centre (one HiGHS LP).  From 4-d on, each probe solves
one support LP (``support_under_constraints``): there the vertex count grows
superlinearly in M (a 5-d simplex sketch with M = 70,000 gave 151k vertices
after 35 s and ~800 MB on a 2-CPU Xeon, against 8.5 s for 20 LPs; at
M = 5,000, 0.57 s against 1.48 s for 50 LPs).

The reference hull and the kept set are both a :class:`PointCloud`, read
as the convex hull of its rows.  :func:`reference_hull` is the one policy
that picks the reference, and :func:`accuracy_curve` gives both errors
along a nested schedule of direction counts: the paper's accuracy curve.

``scipy.spatial`` and ``scipy.optimize`` are imported inside the functions
that call Qhull or HiGHS, so only a run that needs them pays for them.  Keep
any new scipy import function-local for the same reason.
"""
from __future__ import annotations

import math

import numpy as np

from .directions import DirectionSet
from .geometry import NumericalError, PointCloud, exact_extreme_points, farthest_distance
from .sketch import CurvatureSketch, OuterHull, outer_hull, threshold_filter

__all__ = [
    "EmptyOuterHullError",
    "LinearProgramError",
    "UnboundedOuterHullError",
    "accuracy_curve",
    "inner_error",
    "outer_error",
    "probe_support",
    "reference_hull",
    "support_under_constraints",
]

class UnboundedOuterHullError(NumericalError):
    """The halfspace intersection does not bound a finite polytope."""


class EmptyOuterHullError(NumericalError):
    """The halfspaces have no point in common (up to 3-d: no interior point)."""


class LinearProgramError(NumericalError):
    """HiGHS stopped without an optimum, for instance at an iteration limit,
    and without proving its LP infeasible or unbounded."""


def inner_error(true_extremes: PointCloud, inner: PointCloud) -> float:
    """Largest distance from a reference row to the hull of the kept rows.

    Only rows of the reference need checking: the distance function to a
    convex set is convex, so its supremum over a polytope is attained at a
    vertex.  Both hulls are judged in the unit frame of the reference.
    """
    if true_extremes.dim != inner.dim:
        raise ValueError("dimension mismatch between reference and inner hull")
    return farthest_distance(true_extremes.points, inner, true_extremes.points)


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
    _check_lp(res, "support")
    return float(-res.fun)


def _check_lp(res, what: str) -> None:
    """Raise this module's error for a HiGHS result that is not an optimum."""
    if res.status == 2:
        raise EmptyOuterHullError("outer hull is empty")
    if res.status == 3:
        raise UnboundedOuterHullError("outer hull unbounded")
    if not res.success:
        raise LinearProgramError(f"{what} LP failed: {res.message}")


def _centred(outer: OuterHull, origin: np.ndarray) -> tuple[OuterHull, float]:
    """``outer`` centred on ``origin`` and divided by the power of two that
    brings the largest slack into [1/2, 1), and that power.  HiGHS's
    tolerances are absolute (1e-7), so LPs in this frame do not depend on
    the cloud's units or position."""
    slack = outer.offsets - outer.normals @ origin
    unit = math.ldexp(1.0, math.frexp(float(np.abs(slack).max()))[1])
    return OuterHull(normals=outer.normals, offsets=slack / unit), unit


def _chebyshev_centre(outer: OuterHull, origin: np.ndarray) -> np.ndarray:
    """Centre of the largest ball in a halfspace intersection: one HiGHS LP,
    max r subject to n . x + r <= b (unit n), in the frame of :func:`_centred`."""
    from scipy.optimize import linprog

    centred, unit = _centred(outer, origin)
    a_ub = np.column_stack([outer.normals, np.ones(len(outer))])
    cost, bounds = np.r_[np.zeros(outer.dim), -1], [(None, None)] * outer.dim + [(0, None)]
    res = linprog(cost, A_ub=a_ub, b_ub=centred.offsets, bounds=bounds, method="highs")
    _check_lp(res, "Chebyshev centre")
    if res.x[-1] <= 0:
        raise EmptyOuterHullError("outer hull has no interior")
    return origin + unit * res.x[:-1]


def _outer_vertices(outer: OuterHull, interior: np.ndarray) -> np.ndarray:
    """Vertices of a 2-d or 3-d halfspace intersection, by Qhull, around
    ``interior``; when that is not strictly inside every halfspace, sits too
    near one face, or Qhull rejects the input, once more around the
    Chebyshev centre.

    Raises :class:`UnboundedOuterHullError` unless the origin lies strictly
    inside the hull of the normals (otherwise some direction ``y`` has
    ``n . y <= 0`` for every normal and the intersection recedes along it),
    and :class:`EmptyOuterHullError` when the intersection has no interior.
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
    for retry in (False, True):
        centre = _chebyshev_centre(outer, interior) if retry else interior
        slack = outer.offsets - outer.normals @ centre
        if not np.all(slack > 0):
            continue
        # Qhull works on the dual points n / slack, whose hull is the polar of
        # the outer hull about ``centre``.  A slab 1e-9 thick puts two of them
        # 1e9 out on either side, and Qhull's roundoff, eps times the largest
        # coordinate, then merges away real vertices.  So scale each principal
        # axis of the dual points by its two-sided reach, the nearer of its
        # two extremes: in that frame a thin hull is round, and x = centre +
        # frame @ y maps its vertices back.  The origin is strictly inside the
        # dual points' hull (the check above), so every reach is positive.
        dual = outer.normals / slack[:, None]
        vt = np.linalg.svd(dual, full_matrices=False)[2]
        along = dual @ vt.T
        reach = np.minimum(along.max(axis=0), -along.min(axis=0))
        # A point near one face leaves one far dual point on one side only,
        # which no frame pulls in; keep it while Qhull's roundoff there still
        # spares half the digits.
        if (outer.dim + 1) * eps * np.abs(along / reach).max() > np.sqrt(eps):
            continue
        frame = (vt.T / reach) @ vt
        halfspaces = np.column_stack([outer.normals @ frame, -slack])
        try:
            verts = HalfspaceIntersection(halfspaces, np.zeros(outer.dim)).intersections
        except QhullError:
            continue
        return centre + verts @ frame
    raise EmptyOuterHullError("outer hull has no interior")


def probe_support(hull: PointCloud, probes: DirectionSet) -> np.ndarray:
    """``h(d) = max_v v . d`` of the hull of a point set along every probe.

    Judging many outer hulls against one reference, compute this once and
    pass it to :func:`outer_error` as ``h_true``.
    """
    return np.array([float(np.max(hull.points @ d)) for d in probes.directions])


def _outer_support(outer: OuterHull, probes: DirectionSet, interior: np.ndarray) -> np.ndarray:
    """``h_outer(d)`` of a halfspace intersection along every probe.

    Up to 3-d this is the max over the intersection's vertices from
    :func:`_outer_vertices` around ``interior``.  In 4-d and up each probe
    solves one support LP instead, in the frame of :func:`_centred` about
    ``interior``.
    """
    if outer.dim <= 3:
        return probe_support(PointCloud(_outer_vertices(outer, interior)), probes)
    centred, unit = _centred(outer, interior)
    h = np.array([support_under_constraints(centred, d) for d in probes.directions])
    return probes.directions @ interior + unit * h


def outer_error(
    outer: OuterHull,
    true_extremes: PointCloud,
    probes: DirectionSet | None = None,
    h_true: np.ndarray | None = None,
) -> float:
    """Distance from the outer (halfspace) hull to the reference hull.

    Exact in dimension 2: the largest distance from a vertex of the outer
    hull to the reference, with ``probes`` unused.  Otherwise the support-gap
    estimate ``max_d h_outer(d) - h_true(d)`` over the probe set; since the
    bodies are nested it converges to the Hausdorff distance as probes
    densify.  ``h_outer`` comes from :func:`_outer_support` about the
    reference centroid.  ``h_true`` may pass
    ``probe_support(true_extremes, probes)`` computed once for many outer
    hulls.  An unbounded intersection raises
    :class:`UnboundedOuterHullError`, an empty one (up to 3-d also one with
    no interior) :class:`EmptyOuterHullError`.
    """
    if outer.dim != true_extremes.dim:
        raise ValueError("dimension mismatch")
    if outer.dim == 2:
        verts = _outer_vertices(outer, true_extremes.points.mean(axis=0))
        return farthest_distance(verts, true_extremes, true_extremes.points)  # as inner_error
    if probes is None:
        raise ValueError("probe directions are required for the support-gap estimate")
    if probes.dim != outer.dim:
        raise ValueError("probe dimension mismatch")
    if h_true is None:
        h_true = probe_support(true_extremes, probes)
    h_out = _outer_support(outer, probes, true_extremes.points.mean(axis=0))
    return float(np.max(h_out - h_true, initial=0.0))


def reference_hull(cloud: PointCloud, cap: int, seed: int) -> tuple[PointCloud, str]:
    """The reference hull for inner error, and its tag: the oracle's extreme
    points of ``cloud`` (``"oracle"``), or above ``cap`` rows those of a
    ``cap``-row subsample drawn with ``seed`` (``"oracle-subsample"``).
    The subsample's hull lies inside the cloud's, so inner error against it
    can read low."""
    if len(cloud) <= cap:
        return PointCloud(cloud.points[exact_extreme_points(cloud)]), "oracle"
    rng = np.random.Generator(np.random.PCG64(seed))
    sub = cloud.points[np.sort(rng.choice(len(cloud), size=cap, replace=False))]
    return PointCloud(sub[exact_extreme_points(PointCloud(sub))]), "oracle-subsample"


def accuracy_curve(
    sketch: CurvatureSketch,
    schedule: list[int],
    reference: PointCloud,
    probes: DirectionSet | None,
    *,
    alpha: float,
    mode: str,
    filter_seed: int,
) -> list[dict]:
    """One row of errors per direction count M of the increasing ``schedule``.

    The sketch at M takes the first M directions of ``sketch``, so found
    sets grow and outer constraint sets are nested, and the error columns are
    non-increasing sequences rather than statistical trends.  A row's inner
    error is :func:`inner_error` from ``reference`` to the points
    :func:`~hullsketch.sketch.threshold_filter` keeps; its outer error is
    :func:`outer_error` of the sketch's outer hull against the whole cloud
    along ``probes``.  An empty kept set or an unbounded hull gives ``inf``.
    """
    cloud = sketch.cloud
    h_true = None if probes is None else probe_support(cloud, probes)
    rows = []
    for m in schedule:
        sketch_m = CurvatureSketch(cloud, sketch.dirs.prefix(m), sketch.assignment[:m])
        inner_m = threshold_filter(sketch_m, alpha, mode, filter_seed)
        inner_val = math.inf
        if len(inner_m) > 0:
            inner_val = inner_error(reference, PointCloud(inner_m.select(cloud)))
        hull_m = outer_hull(sketch_m, cloud, sketch_m.dirs)
        try:  # too few directions leave the outer hull open
            outer_val = outer_error(hull_m, cloud, probes, h_true=h_true)
        except UnboundedOuterHullError:
            outer_val = math.inf
        found = int(np.count_nonzero(sketch_m.counts))
        rows.append({"n_dirs": m, "n_found": found, "n_kept": len(inner_m),
                     "inner_error": inner_val, "outer_error": outer_val})
    return rows
