"""Seeded synthetic point-cloud generators for the benchmark shape families."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PointCloud

__all__ = ["ShapeSpec", "generate", "SHAPE_KINDS"]

SHAPE_KINDS = ("simplex", "cube", "ball", "sphere", "cone-cap")

# Apex of the cone-cap body sits this far below the hemisphere centre.  Any
# distance > 1 gives the intended mix of one sharp vertex plus a smooth cap.
CONE_APEX_DISTANCE = 2.0


@dataclass(frozen=True)
class ShapeSpec:
    """What to generate: shape family, dimension, count, optional affine map."""

    kind: str
    dim: int
    count: int
    seed: int
    transform: np.ndarray | None = None  # (dim, dim) linear part
    shift: np.ndarray | None = None  # (dim,) translation

    def __post_init__(self):
        if self.kind not in SHAPE_KINDS:
            raise ValueError(f"unknown shape kind {self.kind!r}; expected one of {SHAPE_KINDS}")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.transform is not None:
            mat = np.array(self.transform, dtype=np.float64, copy=True)
            if mat.shape != (self.dim, self.dim):
                raise ValueError("transform must be a (dim, dim) matrix")
            # a rank test is scale-free; a determinant threshold rejects 1e-6 * I in 3-d
            if not np.all(np.isfinite(mat)) or np.linalg.matrix_rank(mat) < self.dim:
                raise ValueError("transform must be finite and nonsingular")
            mat.setflags(write=False)
            object.__setattr__(self, "transform", mat)
        if self.shift is not None:
            vec = np.array(self.shift, dtype=np.float64, copy=True)
            if vec.shape != (self.dim,):
                raise ValueError("shift must be a (dim,) vector")
            vec.setflags(write=False)
            object.__setattr__(self, "shift", vec)


def _unit_rows(rng, count: int, dim: int) -> np.ndarray:
    raw = rng.standard_normal((count, dim))
    norms = np.linalg.norm(raw, axis=1)
    bad = norms == 0.0
    while np.any(bad):
        raw[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(raw, axis=1)
        bad = norms == 0.0
    return raw / norms[:, None]


def _ball(rng, count: int, dim: int) -> np.ndarray:
    dirs = _unit_rows(rng, count, dim)
    radii = rng.random(count) ** (1.0 / dim)
    return dirs * radii[:, None]


def _simplex(rng, count: int, dim: int) -> np.ndarray:
    # Normalised exponentials are uniform over the probability simplex in
    # R^(dim+1); dropping the last coordinate lands uniformly on the solid
    # standard simplex {x >= 0, sum x <= 1} in R^dim.
    exps = rng.standard_exponential((count, dim + 1))
    return exps[:, :dim] / exps.sum(axis=1, keepdims=True)


def _cone_cap(rng, count: int, dim: int) -> np.ndarray:
    """Solid "ice cream cone": unit upper half-ball plus a cone to an apex.

    The apex itself is emitted as point 0 so the body's isolated sharp vertex
    is present in every sample.
    """
    apex = np.zeros(dim)
    apex[-1] = -CONE_APEX_DISTANCE
    if count == 1:
        return apex[None, :]
    n_rand = count - 1
    # Volume split between the half-ball and the cone over the equator disk.
    log_vn = (dim / 2.0) * math.log(math.pi) - math.lgamma(dim / 2.0 + 1.0)
    log_vn1 = ((dim - 1) / 2.0) * math.log(math.pi) - math.lgamma((dim + 1) / 2.0)
    vol_half = 0.5 * math.exp(log_vn)
    vol_cone = math.exp(log_vn1) * CONE_APEX_DISTANCE / dim
    p_cone = vol_cone / (vol_cone + vol_half)
    in_cone = rng.random(n_rand) < p_cone
    pts = np.empty((n_rand, dim))
    k_cone = int(in_cone.sum())
    if k_cone:
        base = np.zeros((k_cone, dim))
        base[:, : dim - 1] = _ball(rng, k_cone, dim - 1)
        t = rng.random(k_cone) ** (1.0 / dim)
        pts[in_cone] = apex + t[:, None] * (base - apex)
    k_half = n_rand - k_cone
    if k_half:
        half = _ball(rng, k_half, dim)
        half[:, -1] = np.abs(half[:, -1])
        pts[~in_cone] = half
    return np.vstack([apex[None, :], pts])


def generate(spec: ShapeSpec) -> PointCloud:
    """Generate the point cloud described by ``spec`` (deterministic per seed)."""
    rng = np.random.Generator(np.random.PCG64(int(spec.seed)))
    if spec.kind == "simplex":
        pts = _simplex(rng, spec.count, spec.dim)
    elif spec.kind == "cube":
        pts = rng.random((spec.count, spec.dim))
    elif spec.kind == "ball":
        pts = _ball(rng, spec.count, spec.dim)
    elif spec.kind == "sphere":
        pts = _unit_rows(rng, spec.count, spec.dim)
    elif spec.kind == "cone-cap":
        pts = _cone_cap(rng, spec.count, spec.dim)
    else:  # pragma: no cover - guarded by ShapeSpec
        raise ValueError(spec.kind)
    if spec.transform is not None:
        pts = pts @ spec.transform.T
    if spec.shift is not None:
        pts = pts + spec.shift
    return PointCloud(pts)
