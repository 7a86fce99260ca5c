"""Inner and outer error of an approximate hull against a reference hull.

Inner error is the farthest any reference vertex sits from the kept hull;
outer error is how far the halfspace hull can reach beyond the reference.
In two dimensions the outer error is computed exactly by enumerating the
constraint-intersection vertices; in higher dimensions it is estimated as
the largest support-function gap over sampled probe directions, which for
nested convex bodies converges to the Hausdorff distance as probes densify.

``scipy.optimize`` is imported inside
``support_under_constraints``, the only caller of ``linprog``, so only a
run that solves a support LP pays for it.  Keep any new scipy import
function-local for the same reason.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .directions import DirectionSet
from .geometry import VertexPolytope, project_onto_hull, support_value
from .sketch import OuterHull

__all__ = [
    "ErrorReport",
    "OuterErrorResult",
    "UnboundedOuterHullError",
    "inner_error",
    "outer_error",
    "outer_hull_vertices_2d",
    "support_under_constraints",
]

EXACT_2D = "exact-2d"
SUPPORT_GAP = "support-gap-estimate"


class UnboundedOuterHullError(RuntimeError):
    """The halfspace intersection does not bound a finite polytope."""


@dataclass(frozen=True)
class OuterErrorResult:
    value: float
    method: str
    n_probes: int


@dataclass(frozen=True)
class ErrorReport:
    """One run's error metrics, JSON-serialisable for summaries and benches."""

    inner_error: float
    outer_error: float | None
    outer_method: str | None
    n_probes: int
    n_dirs_used: int
    n_found: int
    n_kept: int

    def __post_init__(self):
        if self.inner_error < 0 or (self.outer_error is not None and self.outer_error < 0):
            raise ValueError("errors must be nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def inner_error(
    true_extremes: VertexPolytope,
    inner: VertexPolytope,
    tol: float = 1e-9,
    check_containment: bool = True,
) -> float:
    """Largest distance from a reference vertex to the hull of kept points.

    Only vertices of the reference need checking: the distance function to a
    convex set is convex, so its supremum over a polytope is attained at a
    vertex.  With ``check_containment`` the kept points are verified to lie
    inside the reference hull (a warning is emitted if they stick out beyond
    ``tol``; this happens when the reference is itself approximate).
    """
    if true_extremes.dim != inner.dim:
        raise ValueError("dimension mismatch between reference and inner hull")
    if check_containment:
        worst = max(
            project_onto_hull(v, true_extremes, tol=tol).distance
            for v in inner.vertices
        )
        if worst > tol:
            warnings.warn(
                f"inner hull vertices stick out of the reference hull by {worst:.3e}",
                stacklevel=2,
            )
    return max(
        project_onto_hull(v, inner, tol=tol).distance for v in true_extremes.vertices
    )


def outer_hull_vertices_2d(outer: OuterHull, feas_tol: float = 1e-7) -> np.ndarray:
    """Enumerate the vertices of a bounded 2-d halfspace intersection.

    Intersects every constraint pair and keeps the feasible crossings.
    Raises :class:`UnboundedOuterHullError` when the normals leave an angular
    gap of at least pi (then a recession direction exists).
    """
    if outer.dim != 2:
        raise ValueError("vertex enumeration is only available in dimension 2")
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
    scale = max(1.0, float(np.max(np.abs(offsets))))
    # blocked feasibility scan: the candidate-by-constraint matrix can reach
    # O(m^3) entries otherwise
    chunk = max(1, (1 << 24) // (8 * m))
    kept = []
    for c0 in range(0, cand.shape[0], chunk):
        part = cand[c0 : c0 + chunk]
        good = np.all(part @ normals.T - offsets <= feas_tol * scale, axis=1)
        if np.any(good):
            kept.append(part[good])
    if not kept:
        raise UnboundedOuterHullError("no feasible constraint crossings found")
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
    if res.status == 3:
        raise UnboundedOuterHullError("outer hull unbounded")
    if not res.success:
        raise RuntimeError(f"support LP failed: {res.message}")
    return float(-res.fun)


def outer_error(
    outer: OuterHull,
    true_extremes: VertexPolytope,
    probes: DirectionSet | None = None,
    tol: float = 1e-9,
    method: str = "auto",
) -> OuterErrorResult:
    """Distance from the outer (halfspace) hull to the reference hull.

    ``method="auto"`` picks the exact vertex enumeration in dimension 2 and
    the support-gap estimate otherwise.  The estimate is
    ``max_d h_outer(d) - h_true(d)`` over the probe set, each inner
    maximisation solved as a small LP; since the bodies are nested this
    converges to the Hausdorff distance as probes densify.  An unbounded LP
    means the constraint set does not pin down a polytope and raises.
    """
    if outer.dim != true_extremes.dim:
        raise ValueError("dimension mismatch")
    if method == "auto":
        method = EXACT_2D if outer.dim == 2 else SUPPORT_GAP
    if method == EXACT_2D:
        verts = outer_hull_vertices_2d(outer)
        value = max(
            project_onto_hull(v, true_extremes, tol=tol).distance for v in verts
        )
        return OuterErrorResult(value=float(value), method=EXACT_2D, n_probes=0)
    if method != SUPPORT_GAP:
        raise ValueError(f"unknown method {method!r}")
    if probes is None:
        raise ValueError("probe directions are required for the support-gap estimate")
    if probes.dim != outer.dim:
        raise ValueError("probe dimension mismatch")
    gap = 0.0
    for d in probes.directions:
        h_out = support_under_constraints(outer, d)
        gap = max(gap, h_out - support_value(true_extremes, d))
    return OuterErrorResult(value=float(max(gap, 0.0)), method=SUPPORT_GAP, n_probes=len(probes))
