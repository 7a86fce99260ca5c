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
from .geometry import PointCloud
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

VERTEX_ORDERS = ("decreasing", "paper-increasing")
HYPERPLANE_VARIANTS = ("recursive", "gamma-threshold")
# Directions sampled for the recursive variant's sketch of each bundle.
INNER_DIRS = 2048


class NoConstraintsSurvivedError(RuntimeError):
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
        reps = np.asarray(self.representatives, dtype=np.int64).copy()
        reps.setflags(write=False)
        object.__setattr__(self, "representatives", reps)
        frozen = {}
        for rep, mem in self.members.items():
            arr = np.asarray(mem, dtype=np.int64).copy()
            arr.setflags(write=False)
            frozen[int(rep)] = arr
        object.__setattr__(self, "members", frozen)

    def covered_indices(self) -> np.ndarray:
        return np.sort(np.concatenate(list(self.members.values())))


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
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if order not in VERTEX_ORDERS:
        raise ValueError(f"unknown order {order!r}; expected one of {VERTEX_ORDERS}")
    kept = inner.kept_indices
    curv = inner.curvatures
    if order == "decreasing":
        walk = np.lexsort((kept, -curv))
    else:
        walk = np.lexsort((kept, curv))
    coords = cloud.points[kept]

    absorbed = np.zeros(len(kept), dtype=bool)
    reps: list[int] = []
    members: dict[int, np.ndarray] = {}
    for pos in walk:
        if absorbed[pos]:
            continue
        here = coords[pos]
        remaining = ~absorbed
        remaining[pos] = False  # the current point absorbs others, never itself
        close = remaining & (
            np.linalg.norm(coords - here, axis=1) < beta
        )
        absorbed |= close
        rep_idx = int(kept[pos])
        cluster = np.sort(np.concatenate([[rep_idx], kept[close]]))
        reps.append(rep_idx)
        members[rep_idx] = cluster
        absorbed[pos] = True  # processed; marked after the scan

    rep_arr = np.array(reps, dtype=np.int64)
    keep_sorted = np.sort(rep_arr)
    pos_of = {int(k): i for i, k in enumerate(kept)}
    new_curv = np.array([curv[pos_of[int(k)]] for k in keep_sorted])
    compressed = InnerHull(
        kept_indices=keep_sorted,
        curvatures=new_curv,
        alpha=inner.alpha,
        mode=inner.mode,
    )
    return compressed, ClusterMap(representatives=rep_arr, members=members)


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
    parent = np.arange(k)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    cos_thresh = np.cos(merge_angle)
    gram = dirs @ dirs.T
    ii, jj = np.nonzero(np.triu(gram > cos_thresh, k=1))
    for i, j in zip(ii, jj):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    roots = np.array([find(i) for i in range(k)])
    return [np.flatnonzero(roots == r) for r in np.unique(roots)]


def hyperplane_compress(
    sketch: CurvatureSketch,
    cluster_map: ClusterMap,
    *,
    inner_alpha: float = 0.1,
    inner_beta: float = 0.0,
    merge_angle: float = np.pi / 36,
    variant: str = "recursive",
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
    if not 0.0 <= inner_beta < np.inf:
        raise ValueError("inner_beta must be finite and nonnegative")
    cloud, dirs = sketch.cloud, sketch.dirs

    if variant == "recursive":
        bundle = direction_bundle(sketch, cluster_map)
        groups: list[np.ndarray] = []
        weights: list[int] = []
        inner_set = None
        for rep in cluster_map.representatives:
            f_v = bundle[int(rep)]
            if f_v.size == 0:
                continue
            if inner_alpha == 0.0 and inner_beta == 0.0:
                survivors = f_v
            else:
                sub_cloud = PointCloud(dirs.directions[f_v])
                if inner_set is None:
                    inner_set = sample_uniform(INNER_DIRS, cloud.dim, seed)
                sub_sketch = build_sketch(sub_cloud, inner_set)
                sub_inner = threshold_filter(sub_sketch, inner_alpha, "hard")
                if len(sub_inner) == 0:
                    continue
                if inner_beta > 0.0:
                    sub_inner, _ = vertex_compress(sub_inner, sub_cloud, inner_beta)
                survivors = f_v[sub_inner.kept_indices]
            groups.append(survivors)
            weights.append(int(f_v.size))
        if groups:
            by_weight = np.argsort(-np.asarray(weights), kind="stable")
            surviving = np.concatenate([groups[i] for i in by_weight])
        else:
            surviving = np.array([], dtype=np.int64)
    else:
        if gamma is None or not 0.0 < gamma < np.inf:
            raise ValueError("gamma-threshold variant needs a finite positive gamma")
        reps = cluster_map.representatives
        if reps.size >= 3:
            vals = np.sort(cloud.points[reps] @ dirs.directions.T, axis=0)
            spread3 = vals[2:, :] - vals[:-2, :]
            surviving = np.flatnonzero(spread3.min(axis=0) < gamma).astype(np.int64)
        else:
            surviving = np.array([], dtype=np.int64)

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
    final_dirs = DirectionSet(np.asarray(merged), seed=dirs.seed, method=dirs.method)
    return outer_hull(build_sketch(cloud, final_dirs), cloud, final_dirs)
