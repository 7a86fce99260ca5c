import math

import numpy as np
import pytest

from hullsketch import (
    CurvatureSketch,
    NoConstraintsSurvivedError,
    PointCloud,
    VertexPolytope,
    build_sketch,
    direction_bundle,
    hausdorff,
    hyperplane_compress,
    sample_uniform,
    threshold_filter,
    vertex_compress,
)


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
    with pytest.raises(ValueError):
        vertex_compress(inner, cloud, beta=-0.5)
    with pytest.raises(ValueError):
        vertex_compress(inner, cloud, beta=0.5, order="sideways")


def test_cluster_map_partitions_inner_set():
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.standard_normal((120, 3)))
    dirs = sample_uniform(400, 3, seed=4)
    sketch = build_sketch(cloud, dirs)
    inner = threshold_filter(sketch, 0.0)
    comp, cm = vertex_compress(inner, cloud, beta=0.4)
    covered = cm.covered_indices()
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
        before = VertexPolytope(inner.select(cloud))
        after = VertexPolytope(comp.select(cloud))
        assert hausdorff(before, after) < beta


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
    assert bool(hull.contains(cloud.points, tol=1e-9).all())


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
    assert bool(hull.contains(cloud.points, tol=1e-9).all())


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
    assert bool(hull.contains(cloud.points, tol=1e-9).all())


def test_gamma_variant_too_tight_raises():
    cloud = hexagon_cloud()
    dirs = sample_uniform(100, 2, seed=15)
    sketch = build_sketch(cloud, dirs)
    inner = threshold_filter(sketch, 0.0)
    comp, cm = vertex_compress(inner, cloud, beta=0.0)
    with pytest.raises(NoConstraintsSurvivedError):
        hyperplane_compress(sketch, cm, variant="gamma-threshold", gamma=1e-9)

