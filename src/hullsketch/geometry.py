"""Exact geometric primitives shared by the whole library.

Support queries, projection of a point onto the convex hull of a vertex set
(Wolfe-style min-norm point), Hausdorff distance between vertex polytopes,
and a brute-force extreme-point oracle for desk-scale verification.

All container types are immutable after construction (arrays are marked
read-only), so they can be shared freely across threads.  Every operation
here is a pure function of its inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PointCloud",
    "Halfspace",
    "VertexPolytope",
    "ConvergenceError",
    "ProjectionResult",
    "support",
    "support_value",
    "min_norm_point",
    "project_onto_hull",
    "hausdorff",
    "exact_extreme_points",
]

DEFAULT_TOL = 1e-9


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


@dataclass(frozen=True)
class Halfspace:
    """A constraint ``normal . x <= offset`` with a unit normal.

    ``support_index`` optionally records which cloud point attained the
    maximum when the constraint was generated by a support query.
    """

    normal: np.ndarray
    offset: float
    support_index: int | None = None

    def __post_init__(self):
        normal = np.array(self.normal, dtype=np.float64, copy=True)
        if normal.ndim != 1:
            raise ValueError("normal must be a 1-d vector")
        if not np.all(np.isfinite(normal)) or not math.isfinite(self.offset):
            raise ValueError("halfspace data must be finite")
        if abs(np.linalg.norm(normal) - 1.0) > 1e-9:
            raise ValueError("normal must have unit length (within 1e-9)")
        normal.setflags(write=False)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        return float(np.dot(self.normal, x)) <= self.offset + tol


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
    vertices reconstructing ``point``; ``gap`` is the final support-gap
    certificate (an upper bound on how far ``distance`` can exceed the
    true minimum distance, divided by ``distance``).
    """

    point: np.ndarray
    distance: float
    weights: np.ndarray
    gap: float
    iterations: int


def support(cloud: PointCloud, d) -> tuple[int, float]:
    """Return ``(index, value)`` of the cloud point maximising ``x . d``.

    Ties are broken towards the smallest index so repeated runs are
    reproducible even on symmetric inputs.
    """
    d = _check_vector(d, cloud.dim)
    dots = cloud.points @ d
    idx = int(np.argmax(dots))  # first occurrence == smallest index
    return idx, float(dots[idx])


def support_value(hull: VertexPolytope, d) -> float:
    """Exact support function ``h(d) = max_v v . d`` of a vertex polytope."""
    d = _check_vector(d, hull.dim)
    return float(np.max(hull.vertices @ d))


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


def project_onto_hull(
    x,
    hull: VertexPolytope,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
) -> ProjectionResult:
    """Project ``x`` onto ``CH(hull.vertices)`` by Wolfe's min-norm-point scheme.

    The objective ``||y - x||`` is monotone non-increasing across major
    cycles.  Iteration stops when the support-gap certificate guarantees the
    returned distance is within ``tol`` of the true minimum; exceeding the
    iteration cap raises :class:`ConvergenceError` carrying the best iterate.

    Certification saturates at the float64 rounding floor: for points within
    about ``sqrt(eps)`` of the hull boundary (relative to the data scale) the
    returned distance carries that inherent uncertainty.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
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
        if gap <= 0.5 * tol * max(norm_y, tol) or gap <= noise_floor or j in corral:
            break
        stall = stall + 1 if yy >= prev_yy * (1.0 - 1e-12) else 0
        prev_yy = yy
        if stall >= 100:  # cycling within rounding noise
            break
        if iterations > max_iter:
            weights = np.zeros(n_vert)
            weights[np.asarray(corral)] = lam
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
        gap=gap,
        iterations=iterations,
    )


def min_norm_point(
    x, hull: VertexPolytope, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, float]:
    """Closest point of ``CH(hull.vertices)`` to ``x`` and its distance."""
    res = project_onto_hull(x, hull, tol=tol)
    return res.point, res.distance


def hausdorff(p: VertexPolytope, q: VertexPolytope, tol: float = DEFAULT_TOL) -> float:
    """Hausdorff distance between two vertex polytopes.

    Because the supremum of the distance function over a polytope is attained
    at a vertex, only vertices need to be projected onto the opposite hull.
    """
    if p.dim != q.dim:
        raise ValueError("polytopes must share a dimension")
    d_pq = max(project_onto_hull(v, q, tol=tol).distance for v in p.vertices)
    d_qp = max(project_onto_hull(v, p, tol=tol).distance for v in q.vertices)
    return max(d_pq, d_qp)


def exact_extreme_points(cloud: PointCloud, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Indices of the points of ``cloud`` that are extreme in its hull.

    Brute-force oracle: a distinct row is extreme iff its distance to the
    hull of all other distinct rows exceeds ``tol``; a repeated row is
    reported once, by its smallest index (the sketch's tie-break).  Intended
    for desk-scale clouds (roughly N <= 10^4); cost is one projection per
    distinct row.
    """
    rows, first = np.unique(cloud.points, axis=0, return_index=True)
    if len(rows) == 1:
        return first.astype(np.int64)
    out = []
    for i in range(len(rows)):
        others = VertexPolytope(np.delete(rows, i, axis=0))
        if project_onto_hull(rows[i], others, tol=tol).distance > tol:
            out.append(first[i])
    return np.sort(np.array(out, dtype=np.int64))
