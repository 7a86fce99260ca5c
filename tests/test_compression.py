import math
import tracemalloc

import numpy as np
import pytest

from hullsketch import compression
from hullsketch.datagen import SHAPE_KINDS
from hullsketch import (
    CurvatureSketch,
    DirectionSet,
    InnerHull,
    NoConstraintsSurvivedError,
    PointCloud,
    ShapeSpec,
    build_sketch,
    direction_bundle,
    generate,
    hausdorff,
    hyperplane_compress,
    sample_uniform,
    threshold_filter,
    vertex_compress,
)

from oracles import greedy_radius_clusters, satisfies


def crafted(points, counts, n_dirs, seed=0):
    cloud = PointCloud(points)
    dirs = sample_uniform(n_dirs, cloud.dim, seed)
    assignment = np.repeat(np.arange(len(counts)), counts)
    sketch = CurvatureSketch(cloud=cloud, dirs=dirs, assignment=assignment)
    return cloud, sketch, threshold_filter(sketch, 0.0)


def test_obvious_cluster_decreasing_order():
    cloud, sketch, inner = crafted([[0.0, 0.0], [0.01, 0.0], [1.0, 1.0]], [2, 1, 1], 4)
    comp, cm = vertex_compress(inner, cloud, beta=0.1)
    assert comp.kept_indices.tolist() == [0, 2]  # highest-curvature point represents
    assert cm.members[0].tolist() == [0, 1]
    assert cm.members[2].tolist() == [2]
    member = cloud.points[1]
    rep = cloud.points[0]
    assert np.linalg.norm(member - rep) < 0.1


def test_obvious_cluster_paper_increasing_order():
    cloud, sketch, inner = crafted([[0.0, 0.0], [0.01, 0.0], [1.0, 1.0]], [2, 1, 1], 4)
    comp, cm = vertex_compress(inner, cloud, beta=0.1, order="paper-increasing")
    assert comp.kept_indices.tolist() == [1, 2]  # lowest-curvature point walks first


def test_beta_zero_is_identity():
    rng = np.random.default_rng(1)
    cloud = PointCloud(rng.standard_normal((40, 2)))
    dirs = sample_uniform(300, 2, seed=2)
    sketch = build_sketch(cloud, dirs)
    inner = threshold_filter(sketch, 0.0)
    comp, cm = vertex_compress(inner, cloud, beta=0.0)
    assert comp.kept_indices.tolist() == inner.kept_indices.tolist()
    for rep, members in cm.members.items():
        assert members.tolist() == [rep]


def test_negative_beta_rejected():
    cloud, sketch, inner = crafted([[0.0, 0.0], [1.0, 1.0]], [1, 1], 2)
    for beta in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="beta must be finite and nonnegative"):
            vertex_compress(inner, cloud, beta=beta)
    with pytest.raises(ValueError):
        vertex_compress(inner, cloud, beta=0.5, order="sideways")


def test_cluster_map_partitions_inner_set():
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.standard_normal((120, 3)))
    dirs = sample_uniform(400, 3, seed=4)
    sketch = build_sketch(cloud, dirs)
    inner = threshold_filter(sketch, 0.0)
    comp, cm = vertex_compress(inner, cloud, beta=0.4)
    covered = np.sort(np.concatenate(list(cm.members.values())))
    assert covered.tolist() == sorted(inner.kept_indices.tolist())
    total = sum(len(v) for v in cm.members.values())
    assert total == len(inner)  # disjoint by partition
    for rep, members in cm.members.items():
        rep_pt = cloud.points[rep]
        for m in members:
            assert np.linalg.norm(cloud.points[m] - rep_pt) < 0.4 or m == rep


def test_hausdorff_under_beta_randomized():
    rng = np.random.default_rng(5)
    for trial in range(25):
        n = int(rng.integers(30, 100))
        dim = int(rng.choice([2, 3]))
        cloud = PointCloud(rng.standard_normal((n, dim)))
        dirs = sample_uniform(200, dim, seed=1000 + trial)
        sketch = build_sketch(cloud, dirs)
        inner = threshold_filter(sketch, 0.0)
        beta = float(rng.uniform(0.05, 0.6))
        comp, _ = vertex_compress(inner, cloud, beta)
        before = PointCloud(inner.select(cloud))
        after = PointCloud(comp.select(cloud))
        assert hausdorff(before, after) < beta


@pytest.mark.parametrize("order", compression.VERTEX_ORDERS)
@pytest.mark.parametrize("beta", [0.0, 0.05, 0.3])
@pytest.mark.parametrize("kind", SHAPE_KINDS)
def test_vertex_compress_matches_the_greedy_reference(kind, beta, order):
    for dim, seed in ((2, 31), (3, 32)):
        cloud = generate(ShapeSpec(kind=kind, dim=dim, count=300, seed=seed))
        inner = threshold_filter(build_sketch(cloud, sample_uniform(200, dim, seed)), 0.0)
        comp, cm = vertex_compress(inner, cloud, beta, order)
        reps, members, kept = greedy_radius_clusters(
            cloud.points, inner.kept_indices, inner.curvatures, beta, order
        )
        assert cm.representatives.tolist() == reps
        assert {rep: m.tolist() for rep, m in cm.members.items()} == members
        assert list(zip(comp.kept_indices.tolist(), comp.curvatures.tolist())) == kept


def test_vertex_compress_absorbs_only_points_strictly_closer_than_beta():
    # exact distances: duplicate rows stay apart at beta = 0, and so does a point beta away
    cloud = PointCloud([[0.0, 0.0], [0.0, 0.0], [0.25, 0.0], [0.5, 0.0]])
    inner = InnerHull(kept_indices=[0, 1, 2, 3], curvatures=[0.4, 0.3, 0.2, 0.1])
    for beta, want in ((0.0, [[0], [1], [2], [3]]), (0.25, [[0, 1], [2], [3]]),
                       (0.2500001, [[0, 1, 2], [3]])):
        _, cm = vertex_compress(inner, cloud, beta)
        assert [cm.members[rep].tolist() for rep in cm.representatives] == want


def test_direction_bundle_partitions_won_directions():
    rng = np.random.default_rng(6)
    cloud = PointCloud(rng.standard_normal((60, 2)))
    dirs = sample_uniform(300, 2, seed=7)
    sketch = build_sketch(cloud, dirs)
    inner = threshold_filter(sketch, 0.0)
    comp, cm = vertex_compress(inner, cloud, beta=0.5)
    bundle = direction_bundle(sketch, cm)
    all_dirs = np.sort(np.concatenate(list(bundle.values())))
    winners_kept = np.flatnonzero(np.isin(sketch.assignment, inner.kept_indices))
    assert all_dirs.tolist() == winners_kept.tolist()
    sizes = sum(v.size for v in bundle.values())
    assert sizes == all_dirs.size  # disjoint


def run_hyperplane(cloud, n_dirs, beta, seed, **kwargs):
    dirs = sample_uniform(n_dirs, cloud.dim, seed)
    sketch = build_sketch(cloud, dirs)
    inner = threshold_filter(sketch, 0.0)
    comp, cm = vertex_compress(inner, cloud, beta)
    hull = hyperplane_compress(sketch, cm, **kwargs)
    return sketch, dirs, hull


def test_hyperplane_square_cloud_compresses():
    rng = np.random.default_rng(8)
    cloud = PointCloud(rng.random((5000, 2)) * 2 - 1)
    _, _, hull = run_hyperplane(cloud, 2000, beta=0.3, seed=9, inner_alpha=0.1)
    assert 3 <= len(hull) < 200  # far below the 2000 raw constraints
    assert satisfies(hull, cloud.points)


def test_hyperplane_identity_limit_reproduces_raw_outer_hull():
    rng = np.random.default_rng(10)
    cloud = PointCloud(rng.standard_normal((200, 2)))
    sketch, dirs, hull = run_hyperplane(
        cloud, 250, beta=0.0, seed=11,
        inner_alpha=0.0, inner_beta=0.0, merge_angle=1e-9,
    )
    # with no thresholding, no clustering, and no merging this only removes
    # duplicate constraints; uniform samples have none, so sets are equal
    assert len(hull) == 250
    raw = np.column_stack([dirs.directions, (cloud.points[sketch.assignment] * dirs.directions).sum(1)])
    out = np.column_stack([hull.normals, hull.offsets])
    raw_sorted = raw[np.lexsort(raw.T)]
    out_sorted = out[np.lexsort(out.T)]
    assert np.allclose(raw_sorted, out_sorted, atol=1e-12)


def test_hyperplane_recovers_triangle_facets():
    from hullsketch import ShapeSpec, generate

    cloud = generate(ShapeSpec(kind="simplex", dim=2, count=10_000, seed=77))
    _, _, hull = run_hyperplane(cloud, 2000, beta=0.2, seed=88, inner_alpha=0.1)
    true_normals = np.array([[0.0, -1.0], [-1.0, 0.0], [1 / math.sqrt(2), 1 / math.sqrt(2)]])
    assert len(hull) == 3
    matched = set()
    for n in hull.normals:
        angles = np.degrees(np.arccos(np.clip(true_normals @ n, -1, 1)))
        assert angles.min() <= 5.0
        matched.add(int(angles.argmin()))
    assert matched == {0, 1, 2}  # one cluster per facet
    assert satisfies(hull, cloud.points)


def test_recursive_variant_with_inner_beta_keeps_every_point_inside():
    from hullsketch import ShapeSpec, generate

    cloud = generate(ShapeSpec(kind="cube", dim=3, count=3000, seed=21))
    kwargs = dict(n_dirs=1500, beta=0.2, seed=22, inner_alpha=0.02)
    _, _, plain = run_hyperplane(cloud, **kwargs)
    _, _, hull = run_hyperplane(cloud, inner_beta=0.3, **kwargs)
    assert 0 < len(hull) < len(plain)  # the radius compression of each bundle drops directions
    assert satisfies(hull, cloud.points)


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_angular_components_match_the_dense_gram_in_bounded_memory(dim):
    import tracemalloc

    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    from hullsketch.compression import _angular_components

    dirs = sample_uniform(3000, dim, seed=23).directions
    angle = math.pi / 36
    tracemalloc.start()
    try:
        got = _angular_components(dirs, angle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # the dense 3,000 x 3,000 Gram alone takes 69 MiB
    edges = csr_matrix(np.triu(dirs @ dirs.T > math.cos(angle), k=1))
    n, labels = connected_components(edges, directed=False)
    want = sorted((np.flatnonzero(labels == c) for c in range(n)), key=lambda c: c[0])
    assert len(got) == n
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("walk, expect", [([0, 1, 2], [2, 3, 4, 0, 1, 5, 6]),
                                          ([2, 1, 0], [2, 3, 4, 5, 6, 0, 1])])
def test_recursive_bundles_go_heaviest_first_and_ties_keep_the_walk_order(walk, expect):
    # Point p wins the directions of bundle p: sizes 2, 3 and 2.
    angles = np.arange(7) * (2 * math.pi / 7)
    dirs = DirectionSet(np.column_stack([np.cos(angles), np.sin(angles)]), seed=0)
    cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    sketch = CurvatureSketch(cloud=cloud, dirs=dirs, assignment=[0, 0, 1, 1, 1, 2, 2])
    cm = compression.ClusterMap(representatives=walk, members={p: [p] for p in walk})
    hull = hyperplane_compress(sketch, cm, inner_alpha=0.0, inner_beta=0.0, merge_angle=1e-9)
    np.testing.assert_allclose(hull.normals, dirs.directions[expect], rtol=0, atol=1e-15)


def test_merge_angle_monotonicity():
    rng = np.random.default_rng(12)
    cloud = PointCloud(rng.standard_normal((400, 2)))
    dirs = sample_uniform(500, 2, seed=13)
    sketch = build_sketch(cloud, dirs)
    inner = threshold_filter(sketch, 0.0)
    comp, cm = vertex_compress(inner, cloud, beta=0.3)
    counts = []
    for angle in (0.01, 0.05, 0.1, 0.3, 0.8, 1.5):
        hull = hyperplane_compress(
            sketch, cm, inner_alpha=0.0, inner_beta=0.0, merge_angle=angle,
        )
        counts.append(len(hull))
    assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_hyperplane_validation():
    cloud, sketch, inner = crafted([[0.0, 0.0], [1.0, 1.0]], [1, 1], 2)
    comp, cm = vertex_compress(inner, cloud, beta=0.0)
    bad = [
        {"merge_angle": 0.0},
        {"variant": "magic"},
        {"variant": "gamma-threshold"},
        *({"variant": "gamma-threshold", "gamma": g} for g in (0.0, -1.0, math.nan, math.inf)),
        *({"inner_beta": b} for b in (-1.0, math.nan, math.inf)),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            hyperplane_compress(sketch, cm, **kwargs)


def hexagon_cloud():
    ang = np.linspace(0, 2 * math.pi, 7)[:-1]
    return PointCloud(np.column_stack([np.cos(ang), np.sin(ang)]))


def naive_gamma_admitted(reps_pts, directions, gamma):
    """Oracle for the slab criterion: 3 distinct kept points whose pairwise
    support-value differences under d all stay below gamma."""
    admitted = []
    for j, d in enumerate(directions):
        vals = sorted(float(np.dot(p, d)) for p in reps_pts)
        for a in range(len(vals) - 2):
            if vals[a + 2] - vals[a] < gamma:
                admitted.append(j)
                break
    return admitted


def test_gamma_variant_matches_naive_criterion():
    cloud = hexagon_cloud()
    dirs = sample_uniform(600, 2, seed=14)
    sketch = build_sketch(cloud, dirs)
    inner = threshold_filter(sketch, 0.0)
    comp, cm = vertex_compress(inner, cloud, beta=0.0)
    hull = hyperplane_compress(sketch, cm, variant="gamma-threshold", gamma=0.6, merge_angle=1e-9)
    admitted = naive_gamma_admitted(
        cloud.points[cm.representatives], dirs.directions, 0.6
    )
    assert len(admitted) > 0
    expect = dirs.directions[admitted]
    got_sorted = hull.normals[np.lexsort(hull.normals.T)]
    exp_sorted = expect[np.lexsort(expect.T)]
    assert np.allclose(got_sorted, exp_sorted, atol=1e-12)
    assert satisfies(hull, cloud.points)


def test_gamma_variant_too_tight_raises():
    cloud = hexagon_cloud()
    dirs = sample_uniform(100, 2, seed=15)
    sketch = build_sketch(cloud, dirs)
    inner = threshold_filter(sketch, 0.0)
    comp, cm = vertex_compress(inner, cloud, beta=0.0)
    with pytest.raises(NoConstraintsSurvivedError):
        hyperplane_compress(sketch, cm, variant="gamma-threshold", gamma=1e-9)



def test_gamma_variant_scores_representatives_in_bounded_blocks(monkeypatch):
    # Every point of a 2,000-point sphere represents itself: the support values
    # of all representatives along all 2,000 directions would take 32 MB at once.
    rng = np.random.default_rng(16)
    raw = rng.standard_normal((2000, 3))
    cloud = PointCloud(raw / np.linalg.norm(raw, axis=1, keepdims=True))
    sketch = build_sketch(cloud, sample_uniform(2000, 3, seed=17))
    everyone = np.arange(len(cloud))
    cm = compression.ClusterMap(representatives=everyone, members={i: [i] for i in everyone})
    tracemalloc.start()
    try:
        hull = hyperplane_compress(sketch, cm, variant="gamma-threshold", gamma=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
    # one direction per block, and all of them in one block: the same survivors
    for entries in (7, 1 << 40):
        monkeypatch.setattr(compression, "_GRAM_ENTRIES", entries)
        again = hyperplane_compress(sketch, cm, variant="gamma-threshold", gamma=1e-3)
        assert np.array_equal(again.normals, hull.normals)
        assert np.array_equal(again.offsets, hull.offsets)
    # two representatives bound no slab of three
    two = compression.ClusterMap(representatives=[0, 1], members={0: [0], 1: [1]})
    with pytest.raises(NoConstraintsSurvivedError):
        hyperplane_compress(sketch, two, variant="gamma-threshold", gamma=10.0)
