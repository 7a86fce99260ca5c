"""Closed-form probabilistic and geometric bounds for the sketching method.

Conventions: curvature parameters (``k``, ``omega``) are *relative*, i.e.
fractions of the full spherical measure in [0, 1].  Direction-count formulas
are evaluated in log space so they stay usable when the curvature targets
drop to 1e-17 and below.

``scipy.special.gammaln`` is imported inside ``sphere_surface_measure``, so
importing this module (which every CLI stage does) loads no scipy; keep
any new scipy import function-local for the same reason.  ``math.lgamma``
is not a drop-in replacement: it differs from ``gammaln(n / 2)`` in the
last bit for some ``n``, which would change ``bounds`` output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BoundQuery",
    "chebyshev_bound",
    "direction_count_bound",
    "cap_lower_bound",
    "aleksandrov_bound",
    "directions_for_inner_error",
    "sphere_surface_measure",
]

VARIANTS = ("worst-case", "single-point")


@dataclass(frozen=True)
class BoundQuery:
    """Parameter bundle for the direction-count-for-error calculators."""

    n: int
    r: float
    p: float
    eps: float
    x_count: int = 1

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension n must be >= 2")
        if self.r <= 0:
            raise ValueError("radius r must be positive")
        if not 0.0 < self.p < 1.0:
            raise ValueError("failure probability p must lie in (0, 1)")
        if self.eps <= 0:
            raise ValueError("error target eps must be positive")
        if self.x_count < 1:
            raise ValueError("extreme point count must be >= 1")


def sphere_surface_measure(n: int) -> float:
    """Surface measure of the unit sphere S^(n-1) in R^n."""
    from scipy.special import gammaln

    if n < 1:
        raise ValueError("n must be >= 1")
    return math.exp(math.log(2.0) + (n / 2.0) * math.log(math.pi) - gammaln(n / 2.0))


def chebyshev_bound(k: float, m: int, eps: float) -> float:
    """Bound on ``P(|estimated - true curvature| > eps)`` at ``m`` directions.

    The win count is binomial with success probability ``k``, so Chebyshev
    gives ``k (1 - k) / (m eps^2)``; clipped to 1.
    """
    if not 0.0 < k < 1.0:
        raise ValueError("k must lie in (0, 1)")
    if m < 1:
        raise ValueError("m must be >= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    return min(1.0, k * (1.0 - k) / (m * eps * eps))


def direction_count_bound(omega: float, p: float) -> int:
    """Directions needed to find every point of relative curvature >= omega.

    With that many uniform directions, the full direction-hull equals the
    true hull with probability at least ``1 - p``:
    ``ceil(log(omega p) / log(1 - omega))``, at least 1.
    """
    if not 0.0 < omega < 1.0:
        raise ValueError("omega must lie in (0, 1)")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    raw = math.log(omega * p) / math.log1p(-omega)
    return max(1, math.ceil(raw))


def cap_lower_bound(theta: float, n: int) -> float:
    """Lower bound ``(1/2) sin(theta/2)^(n-1)`` on the relative cap measure.

    The cap with angle ``theta`` about a pole is ``{w : w . pole >= cos theta}``;
    its relative measure is at least this value for every dimension.
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi]")
    if n < 2:
        raise ValueError("n must be >= 2")
    return 0.5 * math.sin(theta / 2.0) ** (n - 1)


def aleksandrov_bound(r: float, n: int, omega: float) -> float:
    """Hausdorff penalty for deleting vertices of total relative curvature omega.

    For point sets inside a ball of radius ``r``:
    ``sqrt(2) pi r (2 omega)^(1/(n-1))``.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0.0 <= omega <= 1.0:
        raise ValueError("omega must lie in [0, 1]")
    return math.sqrt(2.0) * math.pi * r * (2.0 * omega) ** (1.0 / (n - 1))


def directions_for_inner_error(q: BoundQuery, variant: str = "worst-case") -> int:
    """Directions sufficient for inner error <= eps with probability 1 - p.

    Combines the deletion penalty with the direction-count bound: the target
    per-point curvature resolution is

        C = (eps / (sqrt(2) pi r))^(n-1) / (2 |X| vol(S^(n-1)))

    with ``|X| = x_count`` in the worst case (missed curvature concentrated
    in many points) or ``|X| = 1`` for the single-point variant (missed
    curvature does not accumulate).  Returns ``ceil(log(C p) / log(1 - C))``.
    Degenerate regimes (error target already implied, or C so large a single
    direction suffices) return 1.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    n, r, p, eps = q.n, q.r, q.p, q.eps
    # Total relative curvature never exceeds 1, so the deletion penalty is
    # capped at the omega = 1 value; a larger error target needs no sampling.
    if eps >= aleksandrov_bound(r, n, 1.0):
        return 1
    x_count = q.x_count if variant == "worst-case" else 1
    log_c = (
        (n - 1) * (math.log(eps) - math.log(math.sqrt(2.0) * math.pi * r))
        - math.log(2.0)
        - math.log(x_count)
        - math.log(sphere_surface_measure(n))
    )
    if log_c >= 0.0:
        return 1
    if log_c + math.log(p) >= 0.0:
        return 1
    c = math.exp(log_c)
    raw = (log_c + math.log(p)) / math.log1p(-c)
    return max(1, math.ceil(raw))
