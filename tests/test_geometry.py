import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hullsketch import (
    ConvergenceError,
    DirectionSet,
    PointCloud,
    ShapeSpec,
    VertexPolytope,
    build_sketch,
    exact_extreme_points,
    generate,
    geometry,
    hausdorff,
    project_onto_hull,
)
from hullsketch.datagen import SHAPE_KINDS
from hullsketch.metrics import probe_support

from oracles import grid_min_distance, lp_extreme_indices, monotone_chain_indices

SQUARE = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def one_direction(d) -> DirectionSet:
    d = np.asarray(d, dtype=np.float64)
    return DirectionSet(d[None, :] / np.linalg.norm(d), seed=0)


def winner(cloud: PointCloud, d) -> int:
    """The support query: the sketch's winner for the single direction ``d``."""
    return int(build_sketch(cloud, one_direction(d)).assignment[0])


def test_support_axis_aligned():
    assert winner(PointCloud([[0, 0], [1, 0], [0, 1]]), [1.0, 0.0]) == 1


def test_support_diagonal():
    assert winner(PointCloud([[-1, -1], [1, 1]]), [1.0, 1.0]) == 1


def test_support_matches_exhaustive_scan():
    rng = np.random.default_rng(42)
    pts = rng.random((1000, 3))
    d = np.array([1.0, 0.0, 0.0])
    scores = [float(np.dot(x, d)) for x in pts]
    assert winner(PointCloud(pts), d) == int(np.argmax(scores))


def test_support_tie_breaks_to_smallest_index():
    cloud = PointCloud([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    assert winner(cloud, [1.0, 0.0]) == 0  # (1,1) and (1,-1) tie; smaller index wins


def test_support_errors():
    cloud = PointCloud([[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        build_sketch(cloud, one_direction([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        DirectionSet(np.array([[np.nan, 0.0]]), seed=0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_support_value_invariant_under_permutation(seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((20, 3))
    d = rng.standard_normal(3)
    perm = rng.permutation(20)
    dirs = one_direction(d)
    v1 = probe_support(VertexPolytope(pts), dirs)[0]
    assert probe_support(VertexPolytope(pts[perm]), dirs)[0] == v1
    scores = pts @ dirs.directions[0]
    idx2 = winner(PointCloud(pts[perm]), d)
    assert scores[perm[idx2]] == v1  # permuted winner is an original argmax


def test_min_norm_segment_endpoint():
    hull = VertexPolytope([[0.0, 0.0], [1.0, 0.0]])
    res = project_onto_hull(np.array([2.0, 0.0]), hull)
    assert res.distance == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(res.point, [1.0, 0.0], atol=1e-9)


def test_min_norm_triangle_analytic():
    dist = project_onto_hull(np.array([1.0, 1.0]), VertexPolytope(TRIANGLE)).distance
    assert dist == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    # brute-force barycentric grid agrees to grid resolution
    grid = grid_min_distance(np.array([1.0, 1.0]), TRIANGLE, steps=400)
    assert abs(dist - grid) < 5e-3


def test_min_norm_inside_hull_is_zero():
    assert project_onto_hull(np.array([0.2, 0.3]), VertexPolytope(TRIANGLE)).distance <= 1e-9


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


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.filterwarnings("error")
def test_hausdorff_does_not_depend_on_units(seed):
    # judged in the unit frame of both polytopes, so the projections'
    # tolerance scales with the data and every scale converges
    rng = np.random.default_rng(seed)
    p, q = rng.standard_normal((30, 3)), rng.standard_normal((20, 3))
    unit = hausdorff(VertexPolytope(p), VertexPolytope(q))
    for scale in (2.0**-40, 2.0**40, 1e-9, 1e-6, 1e9):
        got = hausdorff(VertexPolytope(p * scale), VertexPolytope(q * scale))
        assert got / scale == pytest.approx(unit, rel=1e-12), scale


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


def _grid(side, dim):
    axes = np.meshgrid(*[np.arange(float(side))] * dim, indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, dim)


SCALE_CLOUDS = {
    "ball3": lambda: generate(ShapeSpec(kind="ball", dim=3, count=300, seed=3)).points,
    "grid3": lambda: _grid(4, 3),
    "cube4": lambda: generate(ShapeSpec(kind="cube", dim=4, count=300, seed=4)).points,
    "simplex5": lambda: generate(ShapeSpec(kind="simplex", dim=5, count=300, seed=5)).points,
}


def _overflowing(pts):
    """``pts`` centred on its box and scaled by a power of two so that its
    largest coordinate is in [2**1023, 2**1024): its extent overflows."""
    centred = pts - (pts.min(axis=0) + pts.max(axis=0)) / 2
    huge = np.ldexp(centred, 1024 - np.frexp(np.abs(centred).max())[1])
    assert np.any(huge.max(axis=0) / 2 - huge.min(axis=0) / 2 > np.finfo(float).max / 2)
    return huge


@pytest.mark.parametrize("name", list(SCALE_CLOUDS))
@pytest.mark.filterwarnings("error")  # an overflowing extent must not reach LAPACK
def test_exact_extreme_invariant_to_scale_and_offset(name):
    pts = SCALE_CLOUDS[name]()
    unit = exact_extreme_points(PointCloud(pts)).tolist()
    for scaled in (pts * 2.0**-30, pts * 2.0**30, pts * 2.0**30 + 2.0**30, pts * 1e-9, pts * 1e9,
                   _overflowing(pts)):
        assert exact_extreme_points(PointCloud(scaled)).tolist() == unit


def _pushed_off_facets(dim):
    """Unit-cube corners, plus face centres pushed 1e-6 out of (extreme) or
    into (not extreme) the cube."""
    corners = _grid(2, dim)
    out, into = np.full((dim, dim), 0.5), np.full((dim, dim), 0.5)
    np.fill_diagonal(out, 1.0 + 1e-6)
    np.fill_diagonal(into, 1e-6)
    return np.vstack([corners, into, out])


def _flat_3d():
    rng = np.random.default_rng(31)
    uv = rng.random((60, 2))
    return np.column_stack([uv, uv @ [0.3, -1.2] + 0.5])


def _with_duplicates(pts, seed):
    rng = np.random.default_rng(seed)
    return np.vstack([pts, pts[rng.choice(len(pts), size=len(pts) // 2)]])


ORACLE_CLOUDS = {
    **{
        f"{kind}{dim}": (lambda kind=kind, dim=dim: generate(
            ShapeSpec(kind=kind, dim=dim, count=70, seed=10 * dim + len(kind))
        ).points)
        for kind in SHAPE_KINDS
        for dim in (2, 3, 4, 5)
    },
    "grid2-dup": lambda: _with_duplicates(_grid(5, 2), 1),
    "grid3-dup": lambda: _with_duplicates(_grid(3, 3), 2),
    "grid4-dup": lambda: _with_duplicates(_grid(3, 4), 3),
    "flat3": _flat_3d,
    "line1": lambda: np.random.default_rng(5).random((30, 1)),
    "cube6": lambda: np.random.default_rng(6).random((80, 6)),
    **{f"pushed{dim}": (lambda dim=dim: _pushed_off_facets(dim)) for dim in (2, 3, 4, 5)},
}


@pytest.mark.parametrize("name", list(ORACLE_CLOUDS))
def test_exact_extreme_matches_lp_oracle_on_both_paths(name, monkeypatch):
    pts = ORACLE_CLOUDS[name]()
    want = lp_extreme_indices(pts)
    assert set(exact_extreme_points(PointCloud(pts)).tolist()) == want
    monkeypatch.setattr(geometry, "_QHULL_MAX_DIM", 0)  # every row a candidate
    assert set(exact_extreme_points(PointCloud(pts)).tolist()) == want


def test_pushed_and_flat_clouds_exercise_the_intended_paths():
    from scipy.spatial import ConvexHull, QhullError

    pts = _pushed_off_facets(3)
    assert set(lp_extreme_indices(pts)) == set(range(8)) | {11, 12, 13}
    with pytest.raises(QhullError):
        ConvexHull(_flat_3d())


def test_support_value_square():
    dirs = DirectionSet(np.array([[1.0, 0.0], [1.0, 1.0]]) / [[1.0], [math.sqrt(2)]], seed=0)
    h = probe_support(VertexPolytope(SQUARE), dirs)
    assert h[0] == 1.0
    assert h[1] == pytest.approx(math.sqrt(2))


def test_support_value_matches_support_op():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((30, 4))
    d = rng.standard_normal(4)
    dirs = one_direction(d)
    idx = winner(PointCloud(pts), d)
    assert probe_support(VertexPolytope(pts), dirs)[0] == (pts @ dirs.directions[0])[idx]


def test_pointcloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        PointCloud([[np.inf, 0.0]])
    cloud = PointCloud([[0.0, 1.0]])
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 5.0  # frozen storage
