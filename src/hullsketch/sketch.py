"""Curvature sketching: per-direction support winners and threshold filtering.

The sketch assigns every sampled direction to the cloud point maximising the
dot product.  The fraction of directions a point wins estimates the relative
spherical measure of its normal cone, which is what the threshold filter
keys on.  The same pass yields the outer hull: one supporting halfspace per
direction.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .directions import GAUSSIAN_UNIFORM, DirectionSet, sample_uniform
from .geometry import PointCloud, unit_frame

__all__ = [
    "CurvatureSketch",
    "InnerHull",
    "OuterHull",
    "build_sketch",
    "threshold_filter",
    "outer_hull",
]

# Points per spatial block and directions per score block of the support
# kernel: one score block is at most 256 x 2048 doubles (4 MB).  A chunk of
# directions is sized so that its (block, direction) bounds fit 4 MB too.
_BLOCK_POINTS = 2048
_CHUNK_DIRS = 256
_BOUND_ENTRIES = 1 << 19


@dataclass(frozen=True)
class CurvatureSketch:
    """The support winner of every direction, for one (cloud, dirs) pair.

    ``counts`` is ``bincount(assignment)``, computed here rather than passed.
    """

    cloud: PointCloud
    dirs: DirectionSet
    assignment: np.ndarray  # winner index per direction, length M
    counts: np.ndarray = field(init=False)  # wins per point, length N
    scores_formed: int | None = field(default=None, kw_only=True)  # set by build_sketch

    def __post_init__(self):
        assignment = np.asarray(self.assignment, dtype=np.int64).copy()
        n = len(self.cloud)
        if assignment.shape != (len(self.dirs),):
            raise ValueError("assignment length must match the direction count")
        if assignment.size and not 0 <= assignment.min() <= assignment.max() < n:
            raise ValueError(f"assignment indexes outside [0, {n})")
        counts = np.bincount(assignment, minlength=n)
        assignment.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "counts", counts)

    def curvatures(self) -> np.ndarray:
        """Relative curvature estimate for every point: counts / |D|."""
        return self.counts / float(len(self.dirs))

    def to_dict(self) -> dict:
        """JSON-ready export of the sketch; :meth:`from_dict` reads it back.

        The directions are stored as their seed only, so a set that
        ``sample_uniform`` does not reproduce from it raises ``ValueError``.
        """
        again = sample_uniform(len(self.dirs), self.dirs.dim, self.dirs.seed)
        if not np.array_equal(again.directions, self.dirs.directions):
            raise ValueError("the sketch's directions are not sample_uniform's for their seed")
        return {
            "dim": self.cloud.dim,
            "n_points": len(self.cloud),
            "n_dirs": len(self.dirs),
            "counts": self.counts.tolist(),
            "assignment": self.assignment.tolist(),
            "dirs_seed": self.dirs.seed,
            "dirs_method": GAUSSIAN_UNIFORM,
        }

    @classmethod
    def from_dict(cls, payload, cloud: PointCloud) -> "CurvatureSketch":
        """The sketch of ``cloud`` that :meth:`to_dict` exported, directions
        sampled again from ``dirs_seed``.  Raises ``ValueError`` on missing or
        non-integer fields, another cloud or method, or counts that do not tally."""
        keys = ("dim", "n_points", "n_dirs", "counts", "assignment", "dirs_seed", "dirs_method")
        missing = [k for k in keys if not isinstance(payload, dict) or k not in payload]
        if missing:
            raise ValueError(f"sketch lacks {', '.join(missing)}")
        # JSON integers only: `type(v) is int` refuses bools and floats such as 50.0
        bad = [k for k in ("dim", "n_points", "n_dirs", "dirs_seed") if type(payload[k]) is not int]
        bad += [
            k for k in ("assignment", "counts")
            if type(payload[k]) is not list or not set(map(type, payload[k])) <= {int}
        ]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be JSON integers")
        if payload["n_points"] != len(cloud) or payload["dim"] != cloud.dim:
            raise ValueError("sketch does not match the point file")
        # checked before sampling, so a corrupt n_dirs cannot allocate n_dirs x dim
        if payload["n_dirs"] < 1 or len(payload["assignment"]) != payload["n_dirs"]:
            raise ValueError("n_dirs must be >= 1 and equal len(assignment)")
        if payload["dirs_method"] != GAUSSIAN_UNIFORM:
            raise ValueError(f"dirs_method is not {GAUSSIAN_UNIFORM!r}")
        dirs = sample_uniform(payload["n_dirs"], payload["dim"], payload["dirs_seed"])
        assignment = payload["assignment"]
        if assignment and not 0 <= min(assignment) <= max(assignment) < len(cloud):
            raise ValueError(f"assignment indexes outside [0, {len(cloud)})")
        sketch = cls(cloud, dirs, np.asarray(assignment, dtype=np.int64))
        if not np.array_equal(sketch.counts, payload["counts"]):
            raise ValueError("counts do not tally the assignment")
        return sketch


@dataclass(frozen=True)
class InnerHull:
    """Point indices kept by the threshold filter, with their curvature estimates."""

    kept_indices: np.ndarray
    curvatures: np.ndarray

    def __post_init__(self):
        kept = np.asarray(self.kept_indices, dtype=np.int64).copy()
        curv = np.asarray(self.curvatures, dtype=np.float64).copy()
        if kept.ndim != 1 or curv.shape != kept.shape:
            raise ValueError("kept_indices and curvatures must be aligned 1-d arrays")
        kept.setflags(write=False)
        curv.setflags(write=False)
        object.__setattr__(self, "kept_indices", kept)
        object.__setattr__(self, "curvatures", curv)

    def __len__(self) -> int:
        return self.kept_indices.shape[0]

    def select(self, cloud: PointCloud) -> np.ndarray:
        """Coordinates of the kept points."""
        return cloud.points[self.kept_indices]


@dataclass(frozen=True)
class OuterHull:
    """Intersection of the halfspaces ``normals[i] . x <= offsets[i]``."""

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        normals = np.asarray(self.normals, dtype=np.float64).copy()
        offsets = np.asarray(self.offsets, dtype=np.float64).copy()
        if normals.ndim != 2 or normals.shape[0] < 1:
            raise ValueError("normals must be a nonempty (M, dim) array")
        if offsets.shape != (normals.shape[0],):
            raise ValueError("offsets must align with normals")
        if not (np.all(np.isfinite(normals)) and np.all(np.isfinite(offsets))):
            raise ValueError("halfspace normals and offsets must be finite")
        if np.any(np.abs(np.linalg.norm(normals, axis=1) - 1.0) > 1e-9):
            raise ValueError("all normals must be unit length")
        for a in (normals, offsets):
            a.setflags(write=False)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def __len__(self) -> int:
        return self.normals.shape[0]


def _morton_order(pts: np.ndarray) -> np.ndarray:
    """Point order along a Z-order curve of the quantised coordinates.

    The uint16 key interleaves ``16 // dim`` bits of every axis, or one bit of
    each of the 16 widest axes in higher dimensions.  A stable argsort of
    16-bit keys is a radix sort.  Axes are quantised in the halved
    :func:`~hullsketch.geometry.unit_frame`, finite for any extent.
    """
    bits = max(1, 16 // pts.shape[1])
    frame = unit_frame(pts)
    axes = np.argsort(-frame.extent, kind="stable")[: 16 // bits]
    top, width, value = (1 << bits) - 1, len(axes), np.arange(1 << bits, dtype=np.uint16)
    key = np.zeros(pts.shape[0], dtype=np.uint16)
    for pos, a in enumerate(axes):
        q = pts[:, a] * frame.scale  # the one full-size temporary of this axis
        q -= frame.lo[a]
        # a Python divide gives inf, not a warning; capped, q stays in [0, top + 1)
        q *= min(top / float(frame.extent[a]), sys.float_info.max) if frame.extent[a] > 0 else 0.0
        # bit b of the quantised coordinate goes to key bit b * width + pos
        spread = sum(((value >> b) & 1) << (b * width + pos) for b in range(bits))
        key |= spread.take(q.astype(np.intp))
    return np.argsort(key, kind="stable")


def _support_winners(pts: np.ndarray, dmat: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact ``argmax(pts @ dmat.T, axis=0)``, ties to the smallest index, and
    the number of score entries formed.

    Z-ordered blocks of points (index order inside each) keep their bounding
    box, whose support ``sum_i max(d_i lo_i, d_i hi_i)`` bounds every score in
    the block.  Directions come in chunks sized so that the (block, direction)
    bound matrix fits ``_BOUND_ENTRIES``.  Each direction of a chunk first
    scores its highest-bound block; blocks are then visited in decreasing
    bound order, skipping a (direction, block) pair whose bound is below the
    best score by more than the margin.  Scores go through one reused buffer,
    at most ``_CHUNK_DIRS`` directions at a time.
    """
    n, dim = pts.shape
    order, starts = _morton_order(pts), np.arange(0, n, _BLOCK_POINTS)
    for s0 in starts:
        order[s0 : s0 + _BLOCK_POINTS].sort()
    block_pts = np.take(pts, order, axis=0)  # several times faster than pts[order]
    lo, hi = np.minimum.reduceat(block_pts, starts), np.maximum.reduceat(block_pts, starts)
    # A computed score or bound lies within (dim + 1) eps/2 ||corner|| of its
    # exact value; the margin covers both with a factor of 4 to spare.  The
    # norm is taken in an exact power-of-two frame, so that it cannot
    # overflow or underflow.
    corner = np.maximum(np.abs(lo), np.abs(hi))
    exp = np.frexp(corner.max())[1]
    norm = np.ldexp(np.sqrt((np.ldexp(corner, -exp) ** 2).sum(axis=1).max()), exp)
    margin = 4 * (dim + 1) * np.finfo(float).eps * norm

    assignment = np.empty(dmat.shape[0], dtype=np.int64)
    box, buf = np.hstack([hi, lo]), np.empty(_CHUNK_DIRS * _BLOCK_POINTS)
    formed = 0
    step = max(_CHUNK_DIRS, _BOUND_ENTRIES // starts.size)
    for j0 in range(0, dmat.shape[0], step):
        chunk = dmat[j0 : j0 + step]
        bound = box @ np.hstack([np.clip(chunk, 0, None), np.clip(chunk, None, 0)]).T
        best = np.full(chunk.shape[0], -np.inf)
        winner = np.zeros(chunk.shape[0], dtype=np.int64)

        def scan(b: int, rows: np.ndarray) -> int:
            block = block_pts[starts[b] : starts[b] + _BLOCK_POINTS]
            for r0 in range(0, rows.size, _CHUNK_DIRS):
                part = rows[r0 : r0 + _CHUNK_DIRS]
                scores = buf[: part.size * len(block)].reshape(part.size, len(block))
                np.matmul(chunk[part], block.T, out=scores)
                arg = scores.argmax(axis=1)
                val, idx = scores[np.arange(part.size), arg], order[starts[b] + arg]
                better = (val > best[part]) | ((val == best[part]) & (idx < winner[part]))
                best[part[better]], winner[part[better]] = val[better], idx[better]
            return rows.size * len(block)

        seed, top_bound = bound.argmax(axis=0), bound.max(axis=1)
        for b in np.unique(seed):
            formed += scan(b, np.flatnonzero(seed == b))
        for b in np.argsort(-top_bound):
            floor = best - margin
            if top_bound[b] < floor.min():
                break
            rows = np.flatnonzero((bound[b] >= floor) & (seed != b))
            if rows.size:
                formed += scan(b, rows)
        assignment[j0 : j0 + chunk.shape[0]] = winner
    return assignment, formed


def build_sketch(cloud: PointCloud, dirs: DirectionSet) -> CurvatureSketch:
    """Assign every direction to its support winner and tally win counts.

    One exact kernel serves every cloud size: it skips the point blocks whose
    bounding box cannot reach a direction's best score.  Of exactly tied
    points the smallest index wins, at every size; ``scores_formed`` counts
    the N*M scores actually computed.
    """
    if cloud.dim != dirs.dim:
        raise ValueError(f"dimension mismatch: cloud {cloud.dim}, dirs {dirs.dim}")
    assignment, formed = _support_winners(cloud.points, dirs.directions)
    return CurvatureSketch(cloud, dirs, assignment, scores_formed=formed)


def threshold_filter(
    sketch: CurvatureSketch,
    alpha: float,
    mode: str = "hard",
    seed: int = 0,
) -> InnerHull:
    """Keep the high-curvature winners of a sketch.

    Hard mode keeps exactly the points with estimated curvature strictly
    above ``alpha`` ("at or below the threshold" deletes).  Proportional mode
    additionally keeps each sub-threshold winner with probability
    ``curvature / alpha``, drawn from a generator seeded with ``seed`` in
    point-index order.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if mode not in ("hard", "proportional"):
        raise ValueError(f"unknown mode {mode!r}")
    curv = sketch.curvatures()
    kept_mask = curv > alpha
    if mode == "proportional" and alpha > 0.0:
        candidates = np.flatnonzero((curv > 0.0) & ~kept_mask)
        if candidates.size:
            rng = np.random.Generator(np.random.PCG64(int(seed)))
            draws = rng.random(candidates.size)
            kept_mask[candidates] = draws < curv[candidates] / alpha
    kept = np.flatnonzero(kept_mask).astype(np.int64)
    return InnerHull(kept_indices=kept, curvatures=curv[kept])


def outer_hull(
    sketch: CurvatureSketch, cloud: PointCloud, dirs: DirectionSet
) -> OuterHull:
    """One supporting halfspace per direction: ``d . x <= d . winner``.

    Every cloud point satisfies every constraint by construction (within
    floating-point noise).
    """
    if cloud is not sketch.cloud and not np.array_equal(cloud.points, sketch.cloud.points):
        raise ValueError("cloud does not match the sketch")
    if dirs is not sketch.dirs and not np.array_equal(dirs.directions, sketch.dirs.directions):
        raise ValueError("dirs do not match the sketch")
    winners = cloud.points[sketch.assignment]
    offsets = np.einsum("ij,ij->i", winners, dirs.directions)
    return OuterHull(normals=dirs.directions, offsets=offsets)
