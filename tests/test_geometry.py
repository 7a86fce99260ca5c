import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hullsketch import (
    ConvergenceError,
    Halfspace,
    PointCloud,
    VertexPolytope,
    exact_extreme_points,
    hausdorff,
    min_norm_point,
    project_onto_hull,
    support,
    support_value,
)

from oracles import grid_min_distance, monotone_chain_indices

SQUARE = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_support_axis_aligned():
    cloud = PointCloud([[0, 0], [1, 0], [0, 1]])
    idx, val = support(cloud, np.array([1.0, 0.0]))
    assert idx == 1
    assert val == 1.0


def test_support_diagonal():
    cloud = PointCloud([[-1, -1], [1, 1]])
    idx, val = support(cloud, np.array([1.0, 1.0]))
    assert idx == 1
    assert val == 2.0


def test_support_matches_exhaustive_scan():
    rng = np.random.default_rng(42)
    pts = rng.random((1000, 3))
    cloud = PointCloud(pts)
    d = np.array([1.0, 0.0, 0.0])
    idx, val = support(cloud, d)
    scores = [float(np.dot(x, d)) for x in pts]
    assert idx == int(np.argmax(scores))
    assert val == pytest.approx(max(scores))


def test_support_tie_breaks_to_smallest_index():
    cloud = PointCloud([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    idx, val = support(cloud, np.array([1.0, 0.0]))
    assert idx == 0  # (1,1) and (1,-1) tie; smaller index wins
    assert val == 1.0


def test_support_errors():
    cloud = PointCloud([[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        support(cloud, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        support(cloud, np.array([np.nan, 0.0]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_support_value_invariant_under_permutation(seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((20, 3))
    d = rng.standard_normal(3)
    perm = rng.permutation(20)
    _, v1 = support(PointCloud(pts), d)
    idx2, v2 = support(PointCloud(pts[perm]), d)
    assert v1 == v2
    scores = pts @ d
    assert scores[perm[idx2]] == v1  # permuted winner is an original argmax


def test_min_norm_segment_endpoint():
    hull = VertexPolytope([[0.0, 0.0], [1.0, 0.0]])
    point, dist = min_norm_point(np.array([2.0, 0.0]), hull)
    assert dist == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(point, [1.0, 0.0], atol=1e-9)


def test_min_norm_triangle_analytic():
    point, dist = min_norm_point(np.array([1.0, 1.0]), VertexPolytope(TRIANGLE))
    assert dist == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    # brute-force barycentric grid agrees to grid resolution
    grid = grid_min_distance(np.array([1.0, 1.0]), TRIANGLE, steps=400)
    assert abs(dist - grid) < 5e-3


def test_min_norm_inside_hull_is_zero():
    _, dist = min_norm_point(np.array([0.2, 0.3]), VertexPolytope(TRIANGLE))
    assert dist <= 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_projection_returns_convex_combination(seed):
    rng = np.random.default_rng(seed)
    verts = rng.standard_normal((12, 3))
    x = rng.standard_normal(3) * 2
    res = project_onto_hull(x, VertexPolytope(verts))
    assert res.weights.min() >= -1e-12
    assert abs(res.weights.sum() - 1.0) <= 1e-9
    assert np.allclose(res.weights @ verts, res.point, atol=1e-8)
    assert res.distance == pytest.approx(np.linalg.norm(res.point - x), abs=1e-12)


def test_projection_convergence_error_carries_best_iterate():
    rng = np.random.default_rng(3)
    verts = rng.standard_normal((50, 5))
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    with pytest.raises(ConvergenceError) as err:
        project_onto_hull(2 * np.eye(5)[0], VertexPolytope(verts), max_iter=1)
    assert err.value.point is not None
    assert err.value.distance is not None
    assert err.value.gap > 0


def test_hausdorff_identical_is_zero():
    square = VertexPolytope(SQUARE)
    assert hausdorff(square, square) <= 1e-12


def test_hausdorff_square_vs_triangle():
    p = VertexPolytope([[0, 0], [1, 0], [0, 1], [1, 1]])
    q = VertexPolytope([[0, 0], [1, 0], [0, 1]])
    assert hausdorff(p, q) == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    # grid oracle: farthest point of the square from the triangle
    grid = grid_min_distance(np.array([1.0, 1.0]), np.array([[0, 0], [1, 0], [0, 1]]))
    assert abs(hausdorff(p, q) - grid) < 5e-3


def test_hausdorff_one_sided_when_nested():
    inner = VertexPolytope([[0.2, 0.2], [0.5, 0.2], [0.2, 0.5]])
    outer = VertexPolytope(SQUARE)
    one_sided = max(
        project_onto_hull(v, inner).distance for v in outer.vertices
    )
    assert hausdorff(inner, outer) == pytest.approx(one_sided, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hausdorff_metric_properties(seed):
    rng = np.random.default_rng(seed)
    polys = [VertexPolytope(rng.standard_normal((6, 2))) for _ in range(3)]
    d01 = hausdorff(polys[0], polys[1])
    d10 = hausdorff(polys[1], polys[0])
    assert d01 == pytest.approx(d10, abs=1e-9)
    assert d01 >= 0
    d02 = hausdorff(polys[0], polys[2])
    d12 = hausdorff(polys[1], polys[2])
    assert d02 <= d01 + d12 + 2e-9


def test_exact_extreme_square_plus_centroid():
    cloud = PointCloud(np.vstack([SQUARE, [[0.0, 0.0]]]))
    assert exact_extreme_points(cloud).tolist() == [0, 1, 2, 3]


def test_exact_extreme_collinear():
    cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert exact_extreme_points(cloud).tolist() == [0, 2]


def test_exact_extreme_keeps_a_duplicated_vertex_once():
    # each copy of (1, 1) lies in the hull of the other; the smallest index stays
    cloud = PointCloud([[0, 0], [1, 0], [0, 1], [1, 1], [1, 1], [0.5, 0.5]])
    assert exact_extreme_points(cloud).tolist() == [0, 1, 2, 3]
    assert exact_extreme_points(PointCloud([[2.0, 1.0], [2.0, 1.0]])).tolist() == [0]


def test_exact_extreme_matches_monotone_chain():
    rng = np.random.default_rng(11)
    # 200 points uniform in a triangle
    w = rng.random((200, 2))
    flip = w.sum(axis=1) > 1
    w[flip] = 1 - w[flip]
    pts = w @ np.array([[2.0, 0.3], [0.4, 1.7]]) + np.array([0.5, -0.2])
    cloud = PointCloud(pts)
    assert set(exact_extreme_points(cloud).tolist()) == monotone_chain_indices(pts)


def test_exact_extreme_invariant_to_interior_points():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((40, 2))
    base = set(exact_extreme_points(PointCloud(pts)).tolist())
    hull = VertexPolytope(pts[sorted(base)])
    centroid = pts.mean(axis=0)
    fillers = centroid + 0.25 * (rng.random((10, 2)) - 0.5)
    for f in fillers:  # all strictly inside the hull by construction
        assert project_onto_hull(f, hull).distance <= 1e-9
    grown = set(exact_extreme_points(PointCloud(np.vstack([pts, fillers]))).tolist())
    assert grown == base


def test_support_value_square():
    square = VertexPolytope(SQUARE)
    assert support_value(square, np.array([1.0, 0.0])) == 1.0
    d = np.array([1.0, 1.0]) / math.sqrt(2)
    assert support_value(square, d) == pytest.approx(math.sqrt(2))


def test_support_value_matches_support_op():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((30, 4))
    d = rng.standard_normal(4)
    _, val = support(PointCloud(pts), d)
    assert support_value(VertexPolytope(pts), d) == val


def test_halfspace_validation():
    h = Halfspace(np.array([1.0, 0.0]), 2.0, support_index=3)
    assert h.contains([1.5, 10.0])
    assert not h.contains([2.5, 0.0])
    with pytest.raises(ValueError):
        Halfspace(np.array([1.0, 1.0]), 0.0)  # not unit length


def test_pointcloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        PointCloud([[np.inf, 0.0]])
    cloud = PointCloud([[0.0, 1.0]])
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 5.0  # frozen storage
