"""Sparsification of sketch output: vertex clustering and hyperplane reduction.

Vertex compression greedily absorbs kept points within a radius ``beta`` of a
representative, ordered by estimated curvature.  Hyperplane compression then
shrinks each representative's won-direction bundle to its extreme spread,
merges near-parallel survivors across representatives, and re-derives the
outer hull from the merged directions only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .directions import DirectionSet, sample_uniform
from .geometry import NumericalError, PointCloud, frozen
from .sketch import (
    CurvatureSketch,
    InnerHull,
    OuterHull,
    build_sketch,
    outer_hull,
    threshold_filter,
)

__all__ = [
    "ClusterMap",
    "NoConstraintsSurvivedError",
    "vertex_compress",
    "direction_bundle",
    "hyperplane_compress",
]

# The first of each is the default.
VERTEX_ORDERS = ("decreasing", "paper-increasing")
HYPERPLANE_VARIANTS = ("recursive", "gamma-threshold")
# Directions sampled for the recursive variant's sketch of each bundle.
INNER_DIRS = 2048
# Gram entries formed at once when merging near-parallel directions (2 MB).
_GRAM_ENTRIES = 1 << 18


class NoConstraintsSurvivedError(NumericalError):
    """Hyperplane compression produced an empty constraint set."""


@dataclass(frozen=True)
class ClusterMap:
    """Partition of the inner-hull indices into clusters around representatives.

    ``representatives`` is in greedy processing order; ``members[v]`` holds
    every absorbed inner-hull index including ``v`` itself.
    """

    representatives: np.ndarray
    members: dict[int, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "representatives", frozen(self.representatives, np.int64))
        members = {int(rep): frozen(mem, np.int64) for rep, mem in self.members.items()}
        object.__setattr__(self, "members", members)


def vertex_compress(
    inner: InnerHull,
    cloud: PointCloud,
    beta: float,
    order: str = "decreasing",
) -> tuple[InnerHull, ClusterMap]:
    """Greedy radius clustering of the kept points (vertex compression).

    Walks the kept points in the chosen curvature order; the current point is
    kept and every other remaining point strictly closer than ``beta`` is
    absorbed into its cluster.  ``beta = 0`` is the identity.  The Hausdorff
    distance between the hulls before and after is below ``beta``.

    ``order="decreasing"`` (default) makes each cluster's representative its
    highest-curvature member; ``order="paper-increasing"`` walks lowest
    curvature first.
    """
    if not 0.0 <= beta < np.inf:
        raise ValueError("beta must be finite and nonnegative")
    if order not in VERTEX_ORDERS:
        raise ValueError(f"unknown order {order!r}; expected one of {VERTEX_ORDERS}")
    kept = inner.kept_indices
    curv = inner.curvatures
    if order == "decreasing":
        walk = np.lexsort((kept, -curv))
    else:
        walk = np.lexsort((kept, curv))
    coords = cloud.points[kept]
    # Each point's representative as a position in ``kept``; -1 while the point is free.
    owner = np.full(len(kept), -1, dtype=np.int64)
    for pos in walk:
        if owner[pos] < 0:
            free = np.flatnonzero(owner < 0)
            owner[free[np.linalg.norm(coords[free] - coords[pos], axis=1) < beta]] = pos
            owner[pos] = pos

    reps = walk[owner[walk] == walk]
    by_index = reps[np.argsort(kept[reps])]
    members = {int(kept[p]): np.sort(kept[owner == p]) for p in reps}
    compressed = InnerHull(kept_indices=kept[by_index], curvatures=curv[by_index])
    return compressed, ClusterMap(representatives=kept[reps], members=members)


def direction_bundle(sketch: CurvatureSketch, cluster_map: ClusterMap) -> dict[int, np.ndarray]:
    """Map each representative to the indices of the directions won by any
    member of its cluster."""
    rep_of = np.full(len(sketch.cloud), -1, dtype=np.int64)
    for rep, mem in cluster_map.members.items():
        rep_of[mem] = rep
    winner_rep = rep_of[sketch.assignment]
    return {
        int(rep): np.flatnonzero(winner_rep == rep).astype(np.int64)
        for rep in cluster_map.representatives
    }


def _angular_components(dirs: np.ndarray, merge_angle: float) -> list[np.ndarray]:
    """Single-linkage components of a direction set at angular threshold.

    Component count is monotone non-increasing in ``merge_angle`` (growing the
    threshold only adds edges), which is the property the caller relies on.
    """
    k = dirs.shape[0]
    parent = np.arange(k)  # every entry a root, or pointing straight at its root
    cos_thresh = np.cos(merge_angle)
    # The Gram matrix a block of rows at a time, so memory stays bounded.
    rows = max(1, _GRAM_ENTRIES // k)
    for lo in range(0, k, rows):
        ii, jj = np.nonzero(dirs[lo : lo + rows] @ dirs.T > cos_thresh)
        ii += lo
        while ii.size:  # until no edge joins two roots; loops (i, i) drop at once
            ri, rj = parent[ii], parent[jj]
            joins = ri != rj
            ii, jj, ri, rj = ii[joins], jj[joins], ri[joins], rj[joins]
            # Hook each larger root under its smallest neighbouring root, then
            # compress the chains so every entry points at its root again.
            np.minimum.at(parent, np.maximum(ri, rj), np.minimum(ri, rj))
            grand = parent[parent]
            while not np.array_equal(grand, parent):
                parent, grand = grand, grand[grand]
    # A root is its component's smallest index: components in that order.
    order = np.argsort(parent, kind="stable")
    starts = np.flatnonzero(np.diff(parent[order])) + 1
    return np.split(order, starts)


def hyperplane_compress(
    sketch: CurvatureSketch,
    cluster_map: ClusterMap,
    *,
    inner_alpha: float = 0.1,
    inner_beta: float = 0.0,
    merge_angle: float = np.pi / 36,
    variant: str = HYPERPLANE_VARIANTS[0],
    gamma: float | None = None,
    seed: int = 0,
) -> OuterHull:
    """Reduce the sketch's outer hull to a few merged supporting hyperplanes.

    ``cluster_map`` is the vertex compression of the sketch's kept points;
    each representative's bundle is the set of directions its cluster won
    (:func:`direction_bundle`).

    Recursive variant: each bundle is treated as a point cloud on the sphere
    and itself sketched with ``INNER_DIRS`` directions drawn from ``seed``,
    thresholded at ``inner_alpha`` and radius-compressed at ``inner_beta``;
    the survivors are the bundle's extreme spread (for a corner's normal fan
    these are the adjacent facet normals).  When both inner parameters are
    zero the bundle passes through unchanged: points of the unit sphere are
    all extreme in their own hull, so the exact reduction is the identity
    there.

    Gamma-threshold variant: a direction survives iff three distinct
    representatives have pairwise support-value differences below ``gamma``
    under it.

    Survivors are then merged by single-linkage at ``merge_angle`` (each
    cluster replaced by the renormalised mean of its members) and the result
    is :func:`outer_hull` of the merged directions against the sketch's
    cloud.  It may be unbounded when few constraints survive; that is
    reported, not raised.
    """
    if not 0.0 < merge_angle < np.pi:
        raise ValueError("merge_angle must lie in (0, pi)")
    if variant not in HYPERPLANE_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not 0.0 <= inner_alpha <= 1.0:
        raise ValueError("inner_alpha must lie in [0, 1]")
    if not 0.0 <= inner_beta < np.inf:
        raise ValueError("inner_beta must be finite and nonnegative")
    cloud, dirs = sketch.cloud, sketch.dirs

    if variant == "recursive":
        inner_set = sample_uniform(INNER_DIRS, cloud.dim, seed) if inner_alpha or inner_beta else None
        groups = [np.array([], dtype=np.int64)]  # keeps concatenate defined without bundles
        # Heaviest bundle first; the sort is stable, so ties keep the walk order.
        for f_v in sorted(direction_bundle(sketch, cluster_map).values(), key=len, reverse=True):
            if inner_set is not None and f_v.size:
                sub_cloud = PointCloud(dirs.directions[f_v])
                sub_inner = threshold_filter(build_sketch(sub_cloud, inner_set), inner_alpha, "hard")
                if inner_beta > 0.0:
                    sub_inner, _ = vertex_compress(sub_inner, sub_cloud, inner_beta)
                f_v = f_v[sub_inner.kept_indices]
            groups.append(f_v)
        surviving = np.concatenate(groups)
    else:
        if gamma is None or not 0.0 < gamma < np.inf:
            raise ValueError("gamma-threshold variant needs a finite positive gamma")
        rep_pts = cloud.points[cluster_map.representatives]
        cols = max(1, _GRAM_ENTRIES // max(1, len(rep_pts)))  # as many values as a Gram block
        spread3 = np.empty(len(dirs))  # the narrowest slab of three reps, inf for fewer
        for lo in range(0, len(dirs), cols):
            vals = np.sort(rep_pts @ dirs.directions[lo : lo + cols].T, axis=0)
            spread3[lo : lo + cols] = (vals[2:] - vals[:-2]).min(axis=0, initial=np.inf)
        surviving = np.flatnonzero(spread3 < gamma).astype(np.int64)

    if surviving.size == 0:
        raise NoConstraintsSurvivedError("no constraints survived")

    chosen = dirs.directions[surviving]
    merged = []
    for comp in _angular_components(chosen, merge_angle):
        mean = chosen[comp].mean(axis=0)
        norm = np.linalg.norm(mean)
        if norm < 1e-12:  # antipodal degenerate cluster; keep its first member
            merged.append(chosen[comp[0]])
        else:
            merged.append(mean / norm)
    final_dirs = DirectionSet(np.asarray(merged), seed=dirs.seed)
    return outer_hull(build_sketch(cloud, final_dirs), cloud, final_dirs)
