"""Reproducible sampling of finite direction sets on the unit sphere.

Directions are normalised Gaussians drawn through the inverse normal CDF.
``_ndtri`` is a numpy port of Cephes' ``ndtri`` (S. L. Moshier, *Methods
and Programs for Mathematical Functions*, 1989) with the same operation
order, so it returns ``scipy.special.ndtri``'s values bit for bit and
sampling loads no scipy.  The tails take ``log`` from libm through
``math.log``: numpy's vectorised ``np.log`` can differ from it in the last
bit, and one bit of a Gaussian can change a sketch's winners.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import frozen

__all__ = ["DirectionSet", "sample_uniform"]


@dataclass(frozen=True)
class DirectionSet:
    """A finite set of unit vectors with its RNG provenance.

    ``seed`` records how the set was produced; the ``directions`` array
    itself is authoritative.  Instances are immutable and safe to share.
    """

    directions: np.ndarray
    seed: int

    def __post_init__(self):
        arr = frozen(self.directions, np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("directions must be a nonempty (M, dim) array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("directions must be finite")
        norms = np.linalg.norm(arr, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("every direction must be unit length (within 1e-12)")
        object.__setattr__(self, "directions", arr)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

    def __len__(self) -> int:
        return self.directions.shape[0]

    def prefix(self, m: int) -> "DirectionSet":
        """First ``m`` directions as a set with the same provenance.

        Equals ``sample_uniform(m, dim, seed)`` whenever this set was produced
        by ``sample_uniform(M, dim, seed)`` with ``M >= m`` (the generator
        streams row by row, so prefixes are stable under extension).
        """
        if not 1 <= m <= len(self):
            raise ValueError(f"prefix length {m} out of range 1..{len(self)}")
        return DirectionSet(self.directions[:m], seed=self.seed)


# Cephes ndtri coefficients, highest power first; a p1evl table omits its
# leading 1.
_EXPM2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
# central range, a rational function of (y - 1/2)^2
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# tail with x = sqrt(-2 log y) in [2, 8), a rational function of 1/x
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# far tail, x >= 8 (y <= exp(-32))
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    ans = np.full_like(x, coef[0])
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm_log(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, x.tolist()), dtype=np.float64, count=x.size)


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """Inverse of the standard normal CDF, elementwise; -inf at 0, inf at 1,
    NaN outside [0, 1]."""
    out = np.full(y0.shape, np.nan)
    upper = y0 > 1.0 - _EXPM2
    y = np.where(upper, 1.0 - y0, y0)  # the tails are symmetric
    mid = y > _EXPM2
    t = y[mid] - 0.5
    t2 = t * t
    out[mid] = (t + t * (t2 * _polevl(t2, _P0) / _p1evl(t2, _Q0))) * _S2PI
    tail = (y > 0.0) & ~mid
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    x1 = np.empty_like(x)
    near = x < 8.0
    for sel, p, q in ((near, _P1, _Q1), (~near, _P2, _Q2)):
        zs = z[sel]
        x1[sel] = zs * _polevl(zs, p) / _p1evl(zs, q)
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    out[y0 == 0.0] = -np.inf
    out[y0 == 1.0] = np.inf
    return out


def sample_uniform(m: int, n: int, seed: int) -> DirectionSet:
    """Draw ``m`` independent directions uniformly from the sphere S^(n-1).

    Each direction is a normalised vector of n standard normals obtained via
    inverse-CDF transform, so every row consumes exactly ``n`` generator
    outputs and prefixes are reproducible when ``m`` grows.  Bit-identical
    output for identical ``(m, n, seed)``.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 2:
        raise ValueError("dimension must be >= 2 for sphere sampling")
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    raw = _ndtri(rng.random((m, n)))
    norms = np.linalg.norm(raw, axis=1)
    bad = ~np.isfinite(norms) | (norms == 0.0)
    while np.any(bad):  # probability ~0 redraw, keeps rows independent
        k = int(bad.sum())
        raw[bad] = _ndtri(rng.random((k, n)))
        norms = np.linalg.norm(raw, axis=1)
        bad = ~np.isfinite(norms) | (norms == 0.0)
    return DirectionSet(raw / norms[:, None], seed=seed)
