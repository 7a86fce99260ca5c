"""Reproducible sampling of finite direction sets on the unit sphere.

``scipy.special`` is imported inside ``sample_uniform``, the one function
that calls it, so importing the package loads only numpy and a CLI stage
pays for scipy only when it samples.  Keep any new scipy import
function-local for the same reason.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DirectionSet", "sample_uniform", "concat"]

GAUSSIAN_UNIFORM = "gaussian-uniform"


@dataclass(frozen=True)
class DirectionSet:
    """A finite set of unit vectors with its RNG provenance.

    ``seed``/``method`` record how the set was produced; the ``directions``
    array itself is authoritative.  Instances are immutable and safe to share.
    """

    directions: np.ndarray
    seed: int
    method: str = GAUSSIAN_UNIFORM

    def __post_init__(self):
        arr = np.array(self.directions, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("directions must be a nonempty (M, dim) array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("directions must be finite")
        norms = np.linalg.norm(arr, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("every direction must be unit length (within 1e-12)")
        arr.setflags(write=False)
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
        return DirectionSet(self.directions[:m], seed=self.seed, method=self.method)


def sample_uniform(m: int, n: int, seed: int) -> DirectionSet:
    """Draw ``m`` independent directions uniformly from the sphere S^(n-1).

    Each direction is a normalised vector of n standard normals obtained via
    inverse-CDF transform, so every row consumes exactly ``n`` generator
    outputs and prefixes are reproducible when ``m`` grows.  Bit-identical
    output for identical ``(m, n, seed)``.
    """
    from scipy.special import ndtri

    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 2:
        raise ValueError("dimension must be >= 2 for sphere sampling")
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    raw = ndtri(rng.random((m, n)))
    norms = np.linalg.norm(raw, axis=1)
    bad = ~np.isfinite(norms) | (norms == 0.0)
    while np.any(bad):  # probability ~0 redraw, keeps rows independent
        k = int(bad.sum())
        raw[bad] = ndtri(rng.random((k, n)))
        norms = np.linalg.norm(raw, axis=1)
        bad = ~np.isfinite(norms) | (norms == 0.0)
    return DirectionSet(raw / norms[:, None], seed=seed, method=GAUSSIAN_UNIFORM)


def concat(a: DirectionSet, b: DirectionSet) -> DirectionSet:
    """Ordered concatenation preserving ``a`` as the prefix.

    The result carries ``a``'s provenance tag; reproducibility from a single
    seed is only guaranteed for sets coming straight out of ``sample_uniform``.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    stacked = np.vstack([a.directions, b.directions])
    return DirectionSet(stacked, seed=a.seed, method=a.method)
