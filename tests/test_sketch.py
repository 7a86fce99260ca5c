import math
import re
import tracemalloc

import numpy as np
import pytest

from hullsketch import sketch as sketch_module
from hullsketch import (
    CurvatureSketch,
    DirectionSet,
    InnerHull,
    OuterHull,
    PointCloud,
    build_sketch,
    chebyshev_bound,
    exact_extreme_points,
    outer_hull,
    sample_uniform,
    threshold_filter,
)
from hullsketch.sketch import _BLOCK_POINTS

from oracles import naive_sketch_counts, polygon_vertex_curvatures, satisfies

SQUARE = PointCloud([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def diag_directions():
    d = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float) / math.sqrt(2)
    return DirectionSet(d, seed=0)


def crafted_sketch(counts, n_dirs, dim=2, seed=0):
    """Sketch with prescribed per-point win counts (for filter arithmetic)."""
    cloud = PointCloud(np.arange(len(counts) * dim, dtype=float).reshape(-1, dim))
    dirs = sample_uniform(n_dirs, dim, seed)
    assignment = np.repeat(np.arange(len(counts)), counts)
    return CurvatureSketch(cloud=cloud, dirs=dirs, assignment=assignment)


def test_square_diagonal_directions_one_win_each():
    sk = build_sketch(SQUARE, diag_directions())
    assert sk.counts.tolist() == [1, 1, 1, 1]
    assert sk.curvatures().tolist() == [0.25, 0.25, 0.25, 0.25]


def test_square_corner_curvature_estimate():
    sk = build_sketch(SQUARE, sample_uniform(100_000, 2, seed=12345))
    kd = sk.curvatures()
    assert np.all(kd >= 0.24) and np.all(kd <= 0.26)  # each corner turns a quarter


def test_counts_match_naive_double_loop():
    rng = np.random.default_rng(31)
    cloud = PointCloud(rng.standard_normal((80, 3)))
    dirs = sample_uniform(150, 3, seed=32)
    sk = build_sketch(cloud, dirs)
    assert np.array_equal(sk.counts, naive_sketch_counts(cloud.points, dirs.directions))


def test_counts_match_naive_loop_across_blocks():
    rng = np.random.default_rng(33)
    cloud = PointCloud(rng.standard_normal((2 * _BLOCK_POINTS + 300, 3)))
    dirs = sample_uniform(60, 3, seed=34)
    sk = build_sketch(cloud, dirs)
    assert np.array_equal(sk.counts, naive_sketch_counts(cloud.points, dirs.directions))


def dyadic_directions(dim, rng):
    """Unit directions whose products with integers are exact: +-e_i, plus
    sign vectors of entries +-1/2 in 4-d and +-1/8 in 64-d."""
    axes = np.vstack([np.eye(dim), -np.eye(dim)])
    if dim in (4, 64):
        signs = rng.choice([-1.0, 1.0], size=(24, dim)) / math.sqrt(dim)
        axes = np.vstack([axes, signs])
    return DirectionSet(axes, seed=0)


@pytest.mark.parametrize(
    "dim,n",
    [(1, 1), (1, _BLOCK_POINTS + 1), (4, 1), (4, _BLOCK_POINTS - 1), (4, _BLOCK_POINTS),
     (4, _BLOCK_POINTS + 1), (4, 65_536 + 7), (64, _BLOCK_POINTS + 1), (70, 600)],
)
@pytest.mark.parametrize("scale", [2.0**-30, 1.0, 2.0**30])
@pytest.mark.parametrize("offset", [0.0, 2.0**30])
@pytest.mark.filterwarnings("error")  # an overflowing sort-key cast must fail, not warn
def test_exact_ties_go_to_smallest_index(dim, n, scale, offset):
    # small integer grids tie constantly, and every score is exact in floating
    # point, so the kernel must reproduce the direct first-occurrence argmax
    rng = np.random.default_rng([dim, n, int(math.log2(scale)) + 64, int(offset > 0)])
    pts = scale * (offset + rng.integers(-2, 3, size=(n, dim)).astype(float))
    dirs = dyadic_directions(dim, rng)
    sk = build_sketch(PointCloud(pts), dirs)
    assert np.array_equal(sk.assignment, np.argmax(dirs.directions @ pts.T, axis=1))
    assert 0 < sk.scores_formed <= n * len(dirs)


def tied_grid_and_directions(n, m, seed):
    """An exact-tie 4-d integer grid of n points and m dyadic directions
    (the 24 of ``dyadic_directions`` repeated in a shuffled order)."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(-2, 3, size=(n, 4)).astype(float)
    base = dyadic_directions(4, rng).directions
    return pts, DirectionSet(base[rng.integers(0, len(base), size=m)], seed=0)


def test_exact_ties_when_one_block_is_scored_by_many_directions():
    # one block seeds all 600 directions, so its scores come in groups of 256
    pts, dirs = tied_grid_and_directions(_BLOCK_POINTS, 600, seed=41)
    sk = build_sketch(PointCloud(pts), dirs)
    assert np.array_equal(sk.assignment, np.argmax(dirs.directions @ pts.T, axis=1))
    assert sk.scores_formed == _BLOCK_POINTS * 600


@pytest.mark.parametrize("chunk_dirs,bound_entries", [(256, 1), (7, 40)])
def test_exact_ties_across_direction_chunks(monkeypatch, chunk_dirs, bound_entries):
    # 4 blocks: chunks of 256 directions, then of 10 scored 7 at a time
    monkeypatch.setattr(sketch_module, "_CHUNK_DIRS", chunk_dirs)
    monkeypatch.setattr(sketch_module, "_BOUND_ENTRIES", bound_entries)
    pts, dirs = tied_grid_and_directions(3 * _BLOCK_POINTS + 5, 700, seed=42)
    sk = build_sketch(PointCloud(pts), dirs)
    assert np.array_equal(sk.assignment, np.argmax(dirs.directions @ pts.T, axis=1))


@pytest.mark.parametrize("exponent", [-600, 600])
@pytest.mark.filterwarnings("error")  # an overflowing or underflowing margin must not warn
def test_margin_holds_at_extreme_scales(exponent):
    # scaling by a power of two is exact, so every score, bound and margin
    # scales exactly and the kernel prunes as it does at unit scale
    rng = np.random.default_rng(43)
    raw = rng.standard_normal((20_000, 3))
    unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    dirs = sample_uniform(300, 3, seed=44)
    at_unit = build_sketch(PointCloud(unit), dirs)
    scaled = build_sketch(PointCloud(np.ldexp(unit, exponent)), dirs)
    assert np.array_equal(scaled.assignment, at_unit.assignment)
    assert scaled.scores_formed == at_unit.scores_formed < 0.75 * len(unit) * len(dirs)


@pytest.mark.filterwarnings("error")  # the Z-order key quantises in the halved unit frame
def test_winners_stay_exact_when_the_extent_overflows():
    # max - min overflows a double on the x-axis
    pts = np.array([[-1e308, 0.0], [1e308, 1.0], [0.0, 0.5], [1e308, -1.0]])
    dirs = sample_uniform(64, 2, seed=47)
    sk = build_sketch(PointCloud(pts), dirs)
    assert np.array_equal(sk.assignment, np.argmax(dirs.directions @ pts.T, axis=1))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tiny", [1e-307, 5e-324])
def test_winners_stay_exact_when_an_extent_is_tiny(tiny):
    # top / extent overflows a double on the y-axis
    pts = np.array([[0.0, 0.0], [1.0, tiny], [0.5, 0.0], [0.25, tiny]])
    dirs = sample_uniform(64, 2, seed=48)
    sk = build_sketch(PointCloud(pts), dirs)
    assert np.array_equal(sk.assignment, np.argmax(dirs.directions @ pts.T, axis=1))


@pytest.mark.parametrize("bound_entries", [sketch_module._BOUND_ENTRIES, 40])
def test_winners_stay_exact_where_float32_cannot_order_them(monkeypatch, bound_entries):
    # 4,500 rows about 1e-7 apart at a 1e9 offset, where a double's own
    # rounding (about 1e-7) decides the winner, then the same rows again.  A
    # row 1e-3 lower on every axis stretches the frame so that all the others
    # share one Z-order key, and each copy lands in another block than its
    # original; in that frame the rows still lie further apart than float32's
    # resolution, so a float32 screen alone would pick other winners.  40
    # bound entries make chunks of 256 directions.  Directions are the rows
    # of the reference product, as in the kernel's: with the operands
    # swapped, BLAS rounds some of these scores differently.
    monkeypatch.setattr(sketch_module, "_BOUND_ENTRIES", bound_entries)
    rows = 1e9 + np.random.default_rng(49).uniform(0, 2e-6, size=(4_500, 3))
    pts = np.vstack([rows, rows, np.full((1, 3), 1e9 - 1e-3)])
    dirs = sample_uniform(700, 3, seed=50)
    sk = build_sketch(PointCloud(pts), dirs)
    assert np.array_equal(sk.assignment, np.argmax(dirs.directions @ pts.T, axis=1))
    copies = (sk.assignment >= len(rows)) & (sk.assignment < 2 * len(rows))
    assert not copies.any()  # an exact tie goes to the first copy


def test_kernel_memory_stays_bounded():
    # 5,000 directions on one block: scores unsplit into 256-row groups would
    # take about 80 MB
    pts = np.random.default_rng(45).standard_normal((_BLOCK_POINTS, 3))
    cloud, dirs = PointCloud(pts), sample_uniform(5_000, 3, seed=46)
    tracemalloc.start()
    try:
        build_sketch(cloud, dirs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


@pytest.mark.parametrize("dim, n_dirs", [(3, 1_000), (5, 5_000)])
def test_kernel_memory_stays_below_twice_the_cloud(dim, n_dirs):
    # the kernel's own copy of the cloud is float32, and no N x dim double
    # is allocated, so its peak stays under twice the cloud's bytes
    pts = np.random.default_rng(dim).standard_normal((1 << 18, dim))
    cloud, dirs = PointCloud(pts), sample_uniform(n_dirs, dim, seed=dim)
    tracemalloc.start()
    try:
        build_sketch(cloud, dirs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * cloud.points.nbytes


def test_block_bound_prunes_the_sphere():
    rng = np.random.default_rng(35)
    raw = rng.standard_normal((40_000, 3))
    cloud = PointCloud(raw / np.linalg.norm(raw, axis=1, keepdims=True))
    dirs = sample_uniform(300, 3, seed=36)
    sk = build_sketch(cloud, dirs)
    assert np.array_equal(sk.assignment, np.argmax(dirs.directions @ cloud.points.T, axis=1))
    assert sk.scores_formed < 0.5 * len(cloud) * len(dirs)


def test_dim_mismatch():
    with pytest.raises(ValueError):
        build_sketch(SQUARE, sample_uniform(10, 3, seed=0))


def test_singleton_cloud_takes_all():
    cloud = PointCloud([[2.0, 3.0]])
    sk = build_sketch(cloud, sample_uniform(64, 2, seed=4))
    assert sk.curvatures().tolist() == [1.0]


def test_threshold_hard_arithmetic():
    sk = crafted_sketch([500, 400, 100], 1000)
    inner = threshold_filter(sk, alpha=0.15, mode="hard")
    assert inner.kept_indices.tolist() == [0, 1]
    assert inner.curvatures.tolist() == [0.5, 0.4]


def test_threshold_zero_keeps_all_winners():
    sk = crafted_sketch([5, 0, 3, 2], 10)
    inner = threshold_filter(sk, alpha=0.0)
    assert inner.kept_indices.tolist() == [0, 2, 3]


def test_threshold_alpha_one_keeps_nothing():
    sk = crafted_sketch([5, 5], 10)
    assert len(threshold_filter(sk, alpha=1.0)) == 0


def test_threshold_validation():
    sk = crafted_sketch([1, 1], 2)
    with pytest.raises(ValueError):
        threshold_filter(sk, alpha=1.5)
    with pytest.raises(ValueError):
        threshold_filter(sk, alpha=-0.1)
    with pytest.raises(ValueError):
        threshold_filter(sk, alpha=0.5, mode="soft")


def test_proportional_keeps_at_threshold_with_probability_one():
    sk = crafted_sketch([500, 500], 1000)  # curvature exactly alpha
    for seed in range(50):
        inner = threshold_filter(sk, alpha=0.5, mode="proportional", seed=seed)
        assert inner.kept_indices.tolist() == [0, 1]


def test_proportional_keep_rate_half():
    # curvature = alpha/2 -> keep probability 1/2
    sk = crafted_sketch([250, 750], 1000)
    kept = sum(
        0 in threshold_filter(sk, alpha=0.5, mode="proportional", seed=s).kept_indices
        for s in range(10_000)
    )
    assert abs(kept / 10_000 - 0.5) <= 0.02


def test_outer_hull_axis_square():
    axes = DirectionSet(np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]]), seed=0)
    sk = build_sketch(SQUARE, axes)
    hull = outer_hull(sk, SQUARE, axes)
    assert np.allclose(hull.offsets, 1.0)
    assert satisfies(hull, SQUARE.points)
    # axis constraints recover the exact square: corners saturate two each
    margins = SQUARE.points @ hull.normals.T - hull.offsets
    assert np.all(np.isclose(margins, 0.0) | (margins < 0))


def test_outer_hull_feasibility_random():
    rng = np.random.default_rng(9)
    cloud = PointCloud(rng.standard_normal((300, 4)))
    dirs = sample_uniform(256, 4, seed=10)
    sk = build_sketch(cloud, dirs)
    hull = outer_hull(sk, cloud, dirs)
    assert satisfies(hull, cloud.points)


def test_outer_hull_input_must_match():
    dirs = sample_uniform(16, 2, seed=1)
    sk = build_sketch(SQUARE, dirs)
    other = PointCloud([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        outer_hull(sk, other, dirs)


def test_curvatures_sum_to_one():
    rng = np.random.default_rng(21)
    cloud = PointCloud(rng.random((200, 3)))
    sk = build_sketch(cloud, sample_uniform(777, 3, seed=22))
    assert sk.counts.sum() == 777
    assert sk.curvatures().sum() == pytest.approx(1.0, abs=1e-12)


def test_sandwich_found_points_are_cloud_points_and_feasible():
    rng = np.random.default_rng(23)
    cloud = PointCloud(rng.standard_normal((150, 3)))
    dirs = sample_uniform(200, 3, seed=24)
    sk = build_sketch(cloud, dirs)
    inner = threshold_filter(sk, 0.0)
    assert set(inner.kept_indices.tolist()) <= set(range(len(cloud)))
    hull = outer_hull(sk, cloud, dirs)
    assert satisfies(hull, cloud.points)


def test_found_points_are_true_extremes():
    rng = np.random.default_rng(25)
    cloud = PointCloud(rng.random((100, 2)))
    sk = build_sketch(cloud, sample_uniform(2000, 2, seed=26))
    found = set(np.flatnonzero(sk.counts > 0).tolist())
    oracle = set(exact_extreme_points(cloud).tolist())
    assert found <= oracle


def test_monotone_refinement_under_concat():
    rng = np.random.default_rng(27)
    cloud = PointCloud(rng.standard_normal((120, 3)))
    d1 = sample_uniform(100, 3, seed=28)
    d2 = sample_uniform(60, 3, seed=29)
    both = DirectionSet(np.vstack([d1.directions, d2.directions]), seed=28)
    sk1 = build_sketch(cloud, d1)
    sk12 = build_sketch(cloud, both)
    assert np.all(sk12.counts >= sk1.counts)
    # outer hull of the union is the constraint union
    h1 = outer_hull(sk1, cloud, d1)
    h12 = outer_hull(sk12, cloud, both)
    assert np.array_equal(h12.normals[:100], h1.normals)
    assert np.allclose(h12.offsets[:100], h1.offsets)


def test_chebyshev_consistency_on_right_triangle():
    # right triangle: exterior-angle fractions 1/4 (right angle) and 3/8 (others)
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    truth = polygon_vertex_curvatures(tri)
    assert truth[0] == pytest.approx(0.25)
    assert truth[1] == pytest.approx(0.375)
    cloud = PointCloud(tri)
    m, eps, trials = 2000, 0.05, 200
    violations = np.zeros(3)
    for t in range(trials):
        kd = build_sketch(cloud, sample_uniform(m, 2, seed=60_000 + t)).curvatures()
        for v in range(3):
            violations[v] += abs(kd[v] - truth[v]) > eps
    for v in range(3):
        bound = chebyshev_bound(truth[v], m, eps)
        assert violations[v] / trials <= bound + 0.01


def test_sketch_validation():
    dirs = sample_uniform(4, 2, seed=0)
    for assignment in ([0, 1, 2], [0, 1, 2, 4], [0, 1, 2, -1]):  # wrong length, out of range
        with pytest.raises(ValueError):
            CurvatureSketch(cloud=SQUARE, dirs=dirs, assignment=np.array(assignment))
    # counts is derived from the assignment: a fourth positional argument is refused
    with pytest.raises(TypeError):
        CurvatureSketch(SQUARE, dirs, np.arange(4), np.ones(4, dtype=np.int64))
    sk = CurvatureSketch(SQUARE, dirs, [3, 3, 0, 2])
    assert sk.counts.tolist() == [1, 0, 1, 2]
    assert sk.scores_formed is None


@pytest.mark.parametrize("build, message", [
    (lambda: OuterHull(np.ones(2), np.ones(2)), "nonempty (M, dim)"),
    (lambda: OuterHull(np.empty((0, 2)), np.empty(0)), "nonempty (M, dim)"),
    (lambda: OuterHull(np.eye(2), np.ones(3)), "offsets must align with normals"),
    (lambda: OuterHull(np.eye(2), np.ones((2, 1))), "offsets must align with normals"),
    (lambda: OuterHull(2 * np.eye(2), np.ones(2)), "unit length"),
    (lambda: InnerHull(np.arange(3), np.ones(2)), "aligned 1-d arrays"),
    (lambda: InnerHull(np.zeros((2, 2), dtype=int), np.ones((2, 2))), "aligned 1-d arrays"),
], ids=["outer-1d", "outer-empty", "outer-short-offsets", "outer-2d-offsets", "outer-not-unit",
        "inner-short-curvatures", "inner-2d"])
def test_value_types_refuse_misshapen_arrays(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


@pytest.mark.parametrize(
    "row, column, value", [(0, 2, np.inf), (1, 2, -np.inf), (2, 2, np.nan), (3, 0, np.nan)]
)
def test_outer_hull_rejects_non_finite_halfspaces(row, column, value):
    halfspaces = np.array([[1.0, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]])
    halfspaces[row, column] = value
    with pytest.raises(ValueError, match="must be finite"):
        OuterHull(normals=halfspaces[:, :2], offsets=halfspaces[:, 2])
