"""Curvature sketching: per-direction support winners and threshold filtering.

The sketch assigns every sampled direction to the cloud point maximising the
dot product.  The fraction of directions a point wins estimates the relative
spherical measure of its normal cone, which is what the threshold filter
keys on.  The same pass yields the outer hull: one supporting halfspace per
direction.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .directions import DirectionSet
from .geometry import PointCloud, UnitFrame, frozen, unit_frame

__all__ = [
    "CurvatureSketch",
    "InnerHull",
    "OuterHull",
    "build_sketch",
    "threshold_filter",
    "outer_hull",
]

# threshold_filter's modes; the first is its default.
THRESHOLD_MODES = ("hard", "proportional")
# Points per spatial block and directions per score block of the support
# kernel: one score block is at most 256 x 2048 floats (2 MB) when screening
# and as many doubles (4 MB) when rescoring.  A chunk of directions is sized
# so that its (block, direction) bounds fit 4 MB too.  The float32 copy of
# the cloud is built from doubles gathered 16 blocks at a time.
_BLOCK_POINTS = 2048
_CHUNK_DIRS = 256
_BOUND_ENTRIES = 1 << 19
_GATHER_BLOCKS = 16


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
        assignment = frozen(self.assignment, np.int64)
        n = len(self.cloud)
        if assignment.shape != (len(self.dirs),):
            raise ValueError("assignment length must match the direction count")
        if assignment.size and not 0 <= assignment.min() <= assignment.max() < n:
            raise ValueError(f"assignment indexes outside [0, {n})")
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "counts", frozen(np.bincount(assignment, minlength=n), np.int64))

    def curvatures(self) -> np.ndarray:
        """Relative curvature estimate for every point: counts / |D|."""
        return self.counts / float(len(self.dirs))


@dataclass(frozen=True)
class InnerHull:
    """Point indices kept by the threshold filter, with their curvature estimates."""

    kept_indices: np.ndarray
    curvatures: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kept_indices", frozen(self.kept_indices, np.int64))
        object.__setattr__(self, "curvatures", frozen(self.curvatures, np.float64))
        if self.kept_indices.ndim != 1 or self.curvatures.shape != self.kept_indices.shape:
            raise ValueError("kept_indices and curvatures must be aligned 1-d arrays")

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
        object.__setattr__(self, "normals", frozen(self.normals, np.float64))
        object.__setattr__(self, "offsets", frozen(self.offsets, np.float64))
        if self.normals.ndim != 2 or self.normals.shape[0] < 1:
            raise ValueError("normals must be a nonempty (M, dim) array")
        if self.offsets.shape != (self.normals.shape[0],):
            raise ValueError("offsets must align with normals")
        if not (np.all(np.isfinite(self.normals)) and np.all(np.isfinite(self.offsets))):
            raise ValueError("halfspace normals and offsets must be finite")
        if np.any(np.abs(np.linalg.norm(self.normals, axis=1) - 1.0) > 1e-9):
            raise ValueError("all normals must be unit length")

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def __len__(self) -> int:
        return self.normals.shape[0]


def _morton_order(pts: np.ndarray, frame: UnitFrame) -> np.ndarray:
    """Point order along a Z-order curve of the quantised coordinates.

    The uint16 key interleaves ``16 // dim`` bits of every axis, or one bit of
    each of the 16 widest axes in higher dimensions.  A stable argsort of
    16-bit keys is a radix sort.  Axes are quantised in ``frame``, the
    halved :func:`~hullsketch.geometry.unit_frame` of ``pts``, finite for any
    extent.
    """
    bits = max(1, 16 // pts.shape[1])
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


def _frame_rows(pts: np.ndarray, order: np.ndarray, frame: UnitFrame) -> np.ndarray:
    """``(pts[order] - frame.centre) * 2**-frame.exponent`` as float32, from
    doubles gathered ``_GATHER_BLOCKS`` blocks at a time.

    Every coordinate lies in [-1/2, 1/2], and ``p - centre`` is at most the
    largest ``|p_i|``, so nothing overflows.
    """
    n, group = pts.shape[0], _GATHER_BLOCKS * _BLOCK_POINTS
    out = np.empty(pts.shape, dtype=np.float32)
    centre = np.tile(frame.centre, min(n, group))  # flat: broadcasting over short rows is slow
    for g0 in range(0, n, group):
        rows = np.take(pts, order[g0 : g0 + group], axis=0)
        flat = rows.reshape(-1)
        np.subtract(flat, centre[: flat.size], out=flat)
        out[g0 : g0 + len(rows)] = np.ldexp(rows, -frame.exponent, out=rows)
    return out


def _screen_slack(frame: UnitFrame, dim: int) -> float:
    """``slack = 4 (2 delta + 2 e64)`` of :func:`_support_winners`, in the
    frame of :func:`_frame_rows`."""
    delta = (dim + 3) * 2.0**-24 * math.sqrt(dim) / 2
    # corner bounds every |p_i| * frame.scale.  Its norm is taken in a
    # power-of-two frame of its own, so that it cannot overflow or underflow;
    # past 2**64 the slack exceeds every score's range, so it is capped there.
    corner = np.abs(frame.centre) * frame.scale + frame.extent / 2
    exp = math.frexp(corner.max())[1]
    norm = math.sqrt(float((np.ldexp(corner, -exp) ** 2).sum()))
    shift = min(exp + (frame.scale < 1) - frame.exponent, 64)
    e64 = (dim + 1) * np.finfo(float).eps / 2 * math.ldexp(norm, shift)
    return 4 * (2 * delta + 2 * e64)


def _support_winners(pts: np.ndarray, dmat: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact ``argmax(dmat @ pts.T, axis=1)``, ties to the smallest index, and
    the number of float32 screening scores formed.

    The points are held as the float32 rows ``q`` of :func:`_frame_rows`, in
    Z-ordered blocks (index order inside each).  A block's bounding box
    bounds every score in it by its support ``sum_i max(d_i lo_i, d_i
    hi_i)``.  Directions come in chunks sized so that the (block, direction)
    bound matrix fits ``_BOUND_ENTRIES``.

    A chunk is screened in float32.  Each direction first scores its
    highest-bound block; blocks are then visited in decreasing bound order,
    skipping a (direction, block) pair whose bound is below the direction's
    best float32 score ``best32`` by more than ``slack``.  The blocks whose
    best score comes within ``slack`` of ``best32`` are screened again, and
    the points of theirs that do are rescored with the float64 product of
    ``dmat`` and ``pts`` rows.  The largest float64 score wins, ties to the
    smallest index.

    Why that is exact (Higham, *Accuracy and Stability of Numerical
    Algorithms*, §3.1).  Let ``S(p) = d.q(p)`` in exact arithmetic.  A
    float32 score lies within ``delta = (dim + 3) 2**-24 sqrt(dim)/2`` of
    ``S``: the roundings of ``d`` and ``q`` and a ``dim``-term sum, with
    ``||d|| = 1`` and ``|q_i| <= 1/2``.  A float64 score, taken into the
    frame, lies within ``e64 = (dim + 1) eps/2 ||p|| 2**-exponent`` of ``S``.
    So the float64 winner ``w`` has ``S(w) >= S(p) - 2 e64`` for every
    ``p``, and any float32 score of ``w`` is at least ``best32 - 2 delta -
    2 e64``: ``w`` survives both screens.  Its block's box holds its float32
    row, so that block's bound is at least that score less ``delta`` (and a
    float64 rounding far below ``delta``), hence at least ``best32 - 3 delta
    - 2 e64`` for the final ``best32`` and for every earlier one: the block
    is never skipped.  ``slack = 4 (2 delta + 2 e64)`` covers both cases, with
    room to spare for the roundings of the frame itself.

    Scores go through one reused float32 buffer.  Every float64 product has
    at most ``_CHUNK_DIRS`` rows and ``_BLOCK_POINTS`` columns, so no N x dim
    double is allocated.
    """
    n, dim = pts.shape
    frame = unit_frame(pts)
    order, starts = _morton_order(pts, frame), np.arange(0, n, _BLOCK_POINTS)
    for s0 in starts:
        order[s0 : s0 + _BLOCK_POINTS].sort()
    rows32 = _frame_rows(pts, order, frame)
    hi, lo = np.maximum.reduceat(rows32, starts), np.minimum.reduceat(rows32, starts)
    box, slack = np.hstack([hi, lo]).astype(float), _screen_slack(frame, dim)

    assignment = np.empty(dmat.shape[0], dtype=np.int64)
    buf = np.empty(_CHUNK_DIRS * _BLOCK_POINTS, dtype=np.float32)
    formed = 0
    step = max(_CHUNK_DIRS, _BOUND_ENTRIES // starts.size)
    for j0 in range(0, dmat.shape[0], step):
        chunk = dmat[j0 : j0 + step]
        chunk32 = chunk.astype(np.float32)
        bound = box @ np.hstack([np.clip(chunk, 0, None), np.clip(chunk, None, 0)]).T
        floor = np.full(chunk.shape[0], -np.inf)  # best32 - slack
        block_best = np.full(bound.shape, -np.inf, dtype=np.float32)

        def screen(b: int, part: np.ndarray) -> np.ndarray:
            block = rows32[starts[b] : starts[b] + _BLOCK_POINTS]
            scores = buf[: part.size * len(block)].reshape(part.size, len(block))
            return np.matmul(chunk32[part], block.T, out=scores)

        def scan(b: int, rows: np.ndarray) -> int:
            for r0 in range(0, rows.size, _CHUNK_DIRS):
                part = rows[r0 : r0 + _CHUNK_DIRS]
                block_best[b, part] = top = screen(b, part).max(axis=1)
                floor[part] = np.maximum(floor[part], top.astype(float) - slack)
            return rows.size * min(_BLOCK_POINTS, n - starts[b])

        # an argmax over axis 0 would copy the whole bound matrix
        seed, top_bound = (bound == bound.max(axis=0)).argmax(axis=0), bound.max(axis=1)
        for b in np.unique(seed):
            formed += scan(b, np.flatnonzero(seed == b))
        bound[seed, np.arange(chunk.shape[0])] = -np.inf  # scanned already
        for b in np.argsort(-top_bound):
            if top_bound[b] < floor.min():
                break
            rows = np.flatnonzero(bound[b] >= floor)
            if rows.size:
                formed += scan(b, rows)

        # the floor rounded down to a float, so that float32 scores compare fast
        floor = np.nextafter(floor.astype(np.float32), -np.inf)
        best, winner = np.full(chunk.shape[0], -np.inf), np.zeros(chunk.shape[0], dtype=np.int64)
        near_b, near_r = np.nonzero(block_best >= floor)
        blocks, firsts = np.unique(near_b, return_index=True)
        for b, rows in zip(blocks, np.split(near_r, firsts[1:])):
            for r0 in range(0, rows.size, _CHUNK_DIRS):
                part = rows[r0 : r0 + _CHUNK_DIRS]
                cols = np.flatnonzero((screen(b, part) >= floor[part, None]).any(axis=0))
                # two rows and two columns at least keep the product in BLAS's
                # matrix multiply: numpy hands a 1 x 1 product to dot, whose
                # last bit can differ
                idx = order[starts[b] + (cols if cols.size > 1 else cols.repeat(2))]
                scores = chunk[part if part.size > 1 else part.repeat(2)] @ np.take(pts, idx, axis=0).T
                arg = scores[: part.size].argmax(axis=1)
                val, idx = scores[np.arange(part.size), arg], idx[arg]
                better = (val > best[part]) | ((val == best[part]) & (idx < winner[part]))
                best[part[better]], winner[part[better]] = val[better], idx[better]
        assignment[j0 : j0 + chunk.shape[0]] = winner
    return assignment, int(formed)


def build_sketch(cloud: PointCloud, dirs: DirectionSet) -> CurvatureSketch:
    """Assign every direction to its support winner and tally win counts.

    One exact kernel serves every cloud size: it screens the points in
    float32, skipping the point blocks whose bounding box cannot reach a
    direction's best score, and rescores the near-best ones in float64.  Of
    exactly tied points the smallest index wins, at every size;
    ``scores_formed`` counts the float32 screening scores of the N*M.
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
    if mode not in THRESHOLD_MODES:
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
