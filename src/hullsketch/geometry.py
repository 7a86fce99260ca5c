"""Exact geometric primitives shared by the whole library.

Projection of a point onto the convex hull of a vertex set (Wolfe-style
min-norm point), Hausdorff distance between vertex polytopes, and an exact
extreme-point oracle for desk-scale verification.

Every tolerance is the fixed ``DEFAULT_TOL``, applied where the data's
largest coordinate extent lies in [1/2, 1): the one frame helper
:func:`unit_frame` serves :func:`farthest_distance` (for :func:`hausdorff`,
``inner_error`` and the 2-d ``outer_error``), :func:`exact_extreme_points`
and the sketch's Z-order key.

``scipy.spatial`` is imported inside ``_qhull_candidates``, the only
caller of Qhull, so only a run that asks the oracle for extreme points
pays for it.  Keep any new scipy import function-local for the same
reason.

All container types are immutable after construction (arrays are marked
read-only), so they can be shared freely across threads.  Every operation
here is a pure function of its inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "PointCloud",
    "VertexPolytope",
    "ConvergenceError",
    "ProjectionResult",
    "project_onto_hull",
    "hausdorff",
    "exact_extreme_points",
]

DEFAULT_TOL = 1e-9

# Above this dimension Qhull stops paying for itself.  Measured on 1,000-2,000
# points: in 6-d, Qhull took 0.2-1.8 s, and on a ball (most rows extreme) it
# plus the certificates cost more than projecting every row (2.3 s); in 7-d
# Qhull alone took 2.9 s on 1,000 simplex points, against 1.65 s.
_QHULL_MAX_DIM = 5


def _frozen_matrix(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be a nonempty 2-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    arr.setflags(write=False)
    return arr


def _check_vector(d, dim: int) -> np.ndarray:
    d = np.asarray(d, dtype=np.float64)
    if d.shape != (dim,):
        raise ValueError(f"direction has shape {d.shape}, expected ({dim},)")
    if not np.all(np.isfinite(d)):
        raise ValueError("direction must be finite")
    return d


@dataclass(frozen=True)
class PointCloud:
    """A finite set of points in R^n with stable row indices 0..N-1."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen_matrix(self.points, "points"))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class VertexPolytope:
    """A polytope given by a nonempty list of (claimed) extreme points."""

    vertices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", _frozen_matrix(self.vertices, "vertices"))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def __len__(self) -> int:
        return self.vertices.shape[0]


class ConvergenceError(RuntimeError):
    """Raised when the projection solver exhausts its iteration budget.

    Carries the best iterate found so far and its optimality gap.
    """

    def __init__(self, message, point=None, distance=None, gap=None):
        super().__init__(message)
        self.point = point
        self.distance = distance
        self.gap = gap


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of projecting a point onto a vertex polytope.

    ``weights`` is a dense convex-combination vector over the polytope's
    vertices reconstructing ``point``.
    """

    point: np.ndarray
    distance: float
    weights: np.ndarray
    iterations: int


def _affine_min_norm(gram: np.ndarray) -> np.ndarray:
    """Solve ``min ||sum mu_i q_i||^2`` subject to ``sum mu_i = 1``.

    ``gram`` is the Gram matrix of the current corral.  Solved through the
    bordered KKT system with least squares, which tolerates affinely
    dependent corrals.
    """
    k = gram.shape[0]
    sys = np.zeros((k + 1, k + 1))
    sys[0, 1:] = 1.0
    sys[1:, 0] = 1.0
    sys[1:, 1:] = gram
    rhs = np.zeros(k + 1)
    rhs[0] = 1.0
    sol, *_ = np.linalg.lstsq(sys, rhs, rcond=None)
    return sol[1:]


def project_onto_hull(x, hull: VertexPolytope, max_iter: int | None = None) -> ProjectionResult:
    """Project ``x`` onto ``CH(hull.vertices)`` by Wolfe's min-norm-point scheme.

    The objective ``||y - x||`` is monotone non-increasing across major
    cycles.  Iteration stops when the support-gap certificate guarantees the
    returned distance is within ``DEFAULT_TOL`` of the true minimum;
    exceeding the iteration cap raises :class:`ConvergenceError` carrying
    the best iterate.

    Certification saturates at the float64 rounding floor: for points within
    about ``sqrt(eps)`` of the hull boundary (relative to the data scale) the
    returned distance carries that inherent uncertainty.
    """
    x = _check_vector(x, hull.dim)
    q = hull.vertices - x  # work relative to x: minimise ||y|| over CH(q)
    n_vert = q.shape[0]
    if max_iter is None:
        max_iter = 10 * n_vert * hull.dim + 50

    sq_norms = np.einsum("ij,ij->i", q, q)
    # Below this the support gap is indistinguishable from rounding noise of
    # the dot products; certification cannot be pushed further in float64.
    noise_floor = 64.0 * np.finfo(np.float64).eps * max(float(sq_norms.max()), 1e-300)

    start = int(np.argmin(sq_norms))
    corral = [start]
    lam = np.array([1.0])
    y = q[start].copy()

    iterations = 0
    stall = 0
    prev_yy = math.inf
    while True:
        iterations += 1
        dots = q @ y
        j = int(np.argmin(dots))
        yy = float(y @ y)
        gap = yy - float(dots[j])
        norm_y = math.sqrt(max(yy, 0.0))
        # Distance excess <= 2*gap / max(||y||, tol); see module tests.
        if gap <= 0.5 * DEFAULT_TOL * max(norm_y, DEFAULT_TOL) or gap <= noise_floor or j in corral:
            break
        stall = stall + 1 if yy >= prev_yy * (1.0 - 1e-12) else 0
        prev_yy = yy
        if stall >= 100:  # cycling within rounding noise
            break
        if iterations > max_iter:
            raise ConvergenceError(
                f"projection did not converge in {max_iter} iterations (gap={gap:.3e})",
                point=y + x,
                distance=norm_y,
                gap=gap,
            )
        corral.append(j)
        lam = np.append(lam, 0.0)

        # Minor cycles: move to the affine minimiser, shrinking the corral
        # whenever the minimiser leaves the simplex.
        while True:
            sub = q[np.asarray(corral)]
            mu = _affine_min_norm(sub @ sub.T)
            if mu.min() >= -1e-12:
                lam = np.clip(mu, 0.0, None)
                s = lam.sum()
                if s > 0:
                    lam /= s
                y = lam @ sub
                break
            neg = mu < 0.0
            denom = lam[neg] - mu[neg]
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(denom > 1e-300, lam[neg] / denom, np.inf)
            theta = min(1.0, float(np.min(steps)))
            lam = (1.0 - theta) * lam + theta * mu
            keep = lam > 1e-14
            if not np.any(keep):
                keep[int(np.argmax(lam))] = True
            corral = [c for c, k in zip(corral, keep) if k]
            lam = lam[keep]
            s = lam.sum()
            if s > 0:
                lam /= s

    weights = np.zeros(n_vert)
    weights[np.asarray(corral)] = lam
    point = y + x
    return ProjectionResult(
        point=point,
        distance=float(np.linalg.norm(y)),
        weights=weights,
        iterations=iterations,
    )


class UnitFrame(NamedTuple):
    scale: float  # 1/2 if a coordinate bound has magnitude 1 or more, else 1
    lo: np.ndarray  # per-axis lower bounds, times scale
    extent: np.ndarray  # per-axis extents, times scale: finite for finite points
    centre: np.ndarray  # box midpoint
    exponent: int  # 2**-exponent brings the largest extent into [1/2, 1); 0 if it is 0


def unit_frame(points: np.ndarray) -> UnitFrame:
    """Bounding box of the rows of ``points``, halved (see ``scale``) to stay finite.
    Halving is exact off the subnormal range, so each field is bit for bit the
    plain formula's wherever that is finite."""
    lo = np.array([col.min() for col in points.T])  # per column: far faster than axis=0
    hi = np.array([col.max() for col in points.T])
    scale = 0.5 if max(hi.max(), -lo.min()) >= 1.0 else 1.0
    lo, hi = lo * scale, hi * scale
    top = float((hi - lo).max())
    exponent = math.frexp(top)[1] + (scale < 1.0) if top > 0 else 0
    return UnitFrame(scale, lo, hi - lo, (lo + hi) * (0.5 / scale), exponent)


def farthest_distance(rows: np.ndarray, hull: VertexPolytope, frame_of: np.ndarray) -> float:
    """Largest distance from a row of ``rows`` to ``CH(hull.vertices)``, projected
    in the :func:`unit_frame` of ``frame_of`` and scaled back."""
    exponent = unit_frame(frame_of).exponent
    scaled = VertexPolytope(np.ldexp(hull.vertices, -exponent))
    worst = max(project_onto_hull(v, scaled).distance for v in np.ldexp(rows, -exponent))
    return math.ldexp(worst, exponent)


def hausdorff(p: VertexPolytope, q: VertexPolytope) -> float:
    """Hausdorff distance between two vertex polytopes.

    Because the supremum of the distance function over a polytope is attained
    at a vertex, only vertices need to be projected onto the opposite hull,
    both ways in the unit frame of all the vertices.
    """
    if p.dim != q.dim:
        raise ValueError("polytopes must share a dimension")
    both = np.vstack([p.vertices, q.vertices])
    return max(farthest_distance(p.vertices, q, both), farthest_distance(q.vertices, p, both))


def _qhull_candidates(rows: np.ndarray) -> np.ndarray:
    """Rows that Qhull reports as hull vertices or could not separate from a
    facet; every row when Qhull is not used or rejects the input."""
    n, dim = rows.shape
    if not 2 <= dim <= _QHULL_MAX_DIM or n <= dim + 1:
        return np.arange(n)
    from scipy.spatial import ConvexHull, QhullError

    # Passing options replaces scipy's default "Qx" for dim > 4, so it is
    # restated; "Qc" makes Qhull list the points it found coplanar.
    try:
        hull = ConvexHull(rows, qhull_options="Qc Qx" if dim > 4 else "Qc")
    except QhullError:  # flat input: the rows span fewer than dim dimensions
        return np.arange(n)
    return np.union1d(hull.vertices, hull.coplanar[:, 0])


def exact_extreme_points(cloud: PointCloud) -> np.ndarray:
    """Indices of the points of ``cloud`` that are extreme in its hull.

    A distinct row is extreme iff its distance to the hull of all other
    distinct rows exceeds ``DEFAULT_TOL``; a repeated row is reported once,
    by its smallest index (the sketch's tie-break).

    The rows are first centred and scaled in their :func:`unit_frame`, so
    the tolerance is relative to their extent and the answer does not depend
    on the units of the cloud.  For 2 <= dim <= 5 and more than dim + 1 distinct
    rows, Qhull (Barber, Dobkin & Huhdanpaa, ACM TOMS 1996) proposes the
    candidates: its hull vertices and the points it found coplanar with a
    facet.  A row it puts strictly inside the hull cannot be extreme.  In
    other dimensions, or on flat input that Qhull rejects, every row is a
    candidate.  Each candidate is certified by one Wolfe projection onto the
    other distinct rows, so a false vertex from Qhull is never reported.

    Cost: one projection per candidate, each O(N * dim) per Wolfe
    iteration, plus Qhull's own, which grows steeply with dim and above
    5-d can exceed that of projecting every row (hence the cap).  Intended
    for desk-scale clouds (roughly N <= 10^4).
    """
    rows, first = np.unique(cloud.points, axis=0, return_index=True)
    if len(rows) == 1:
        return first.astype(np.int64)
    frame = unit_frame(rows)
    rows = np.ldexp(rows - frame.centre, -frame.exponent)
    out = []
    for i in _qhull_candidates(rows):
        others = VertexPolytope(np.delete(rows, i, axis=0))
        if project_onto_hull(rows[i], others).distance > DEFAULT_TOL:
            out.append(first[i])
    return np.sort(np.array(out, dtype=np.int64))
