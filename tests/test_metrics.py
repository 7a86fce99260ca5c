import math

import numpy as np
import pytest

from hullsketch import (
    DirectionSet,
    EmptyOuterHullError,
    OuterHull,
    PointCloud,
    UnboundedOuterHullError,
    build_sketch,
    exact_extreme_points,
    inner_error,
    outer_error,
    outer_hull,
    sample_uniform,
    threshold_filter,
)
from hullsketch import metrics
from hullsketch.datagen import ShapeSpec, generate
from hullsketch.metrics import (
    _outer_support,
    accuracy_curve,
    probe_support,
    reference_hull,
    support_under_constraints,
)

from oracles import grid_min_distance, halfplane_vertices, polygon_distance, support_gap

SQUARE = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
CUBE = np.array([[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0)])
SHEAR = np.array([[1.5, 0.4, 0.0], [0.0, 0.9, 0.25], [0.2, 0.0, 0.7]])


def make_outer(normals, offsets):
    return OuterHull(normals=normals, offsets=offsets)


def rotated_square_outer():
    # only the four diagonal constraints: a larger square rotated 45 degrees
    d = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float) / math.sqrt(2)
    return make_outer(d, np.full(4, math.sqrt(2)))


def axis_square_outer():
    return make_outer([[1.0, 0], [-1, 0], [0, 1], [0, -1]], [1.0, 1, 1, 1])


def test_inner_error_zero_for_identical():
    square = PointCloud(SQUARE)
    assert inner_error(square, square) <= 1e-9


def test_inner_error_missing_corner_analytic():
    true = PointCloud(SQUARE)
    inner = PointCloud([[-1, -1], [1, -1], [-1, 1]])
    val = inner_error(true, inner)
    assert val == pytest.approx(math.sqrt(2), abs=1e-9)
    grid = grid_min_distance(np.array([1.0, 1.0]), np.array([[-1, -1], [1, -1], [-1, 1]]))
    assert abs(val - grid) <= 5e-3


@pytest.mark.filterwarnings("error")  # an overflowing extent must not reach LAPACK
def test_inner_error_scales_with_the_data():
    # one corner of the cube pulled in; at 2**1023 the cube's extent overflows
    inner = PointCloud(np.vstack([CUBE[:-1], [0.5, 0.25, 0.5]]))
    unit = inner_error(PointCloud(CUBE), inner)
    assert unit > 0.5
    for scale in (2.0**-1000, 2.0**1023):  # exact: the unit frame is a power of two
        got = inner_error(PointCloud(CUBE * scale), PointCloud(inner.points * scale))
        assert got / scale == unit, scale
    for scale in (1e-9, 1e9):
        got = inner_error(PointCloud(CUBE * scale), PointCloud(inner.points * scale))
        assert got / scale == pytest.approx(unit, rel=1e-12), scale


def test_inner_error_dim_mismatch():
    with pytest.raises(ValueError):
        inner_error(PointCloud(SQUARE), PointCloud([[0.0, 0, 0]]))


def test_outer_error_zero_when_exact():
    assert outer_error(axis_square_outer(), PointCloud(SQUARE)) <= 1e-9


def test_outer_error_rotated_square_exact():
    assert outer_error(rotated_square_outer(), PointCloud(SQUARE)) == pytest.approx(1.0, abs=1e-9)


def test_support_gap_close_to_exact_2d():
    outer = rotated_square_outer()
    probes = sample_uniform(10_000, 2, seed=5)
    est = support_gap(outer, PointCloud(SQUARE), probes)
    exact = outer_error(outer, PointCloud(SQUARE))
    assert est >= 0.99 * exact
    assert est <= exact + 1e-9


def test_outer_error_is_exact_in_2d_with_probes_too():
    outer = rotated_square_outer()
    with_probes = outer_error(outer, PointCloud(SQUARE), sample_uniform(50, 2, seed=5))
    assert with_probes == outer_error(outer, PointCloud(SQUARE))


@pytest.mark.parametrize("dim", [3, 4])
def test_outer_error_needs_probes_above_2d(dim):
    outer = make_outer(np.vstack([np.eye(dim), -np.eye(dim)]), np.ones(2 * dim))
    with pytest.raises(ValueError, match="probe directions are required"):
        outer_error(outer, PointCloud(np.eye(dim)))


def test_triangle_face_normals_give_exact_outer_hull():
    tri = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    s = 1 / math.sqrt(2)
    faces = DirectionSet(np.array([[0.0, -1.0], [-1.0, 0.0], [s, s]]), seed=0)
    sk = build_sketch(tri, faces)
    hull = outer_hull(sk, tri, faces)
    assert outer_error(hull, PointCloud(tri.points)) <= 1e-9
    # support-gap sweep agrees: no probe sees the outer hull reach beyond
    probes = sample_uniform(2000, 2, seed=3)
    assert support_gap(hull, PointCloud(tri.points), probes) <= 1e-9


def test_support_gap_agrees_with_exact_on_random_instance():
    rng = np.random.default_rng(12)
    cloud = PointCloud(rng.standard_normal((120, 2)))
    dirs = sample_uniform(50, 2, seed=13)
    sk = build_sketch(cloud, dirs)
    hull = outer_hull(sk, cloud, dirs)
    exact = outer_error(hull, PointCloud(cloud.points))
    est = support_gap(hull, PointCloud(cloud.points), sample_uniform(10_000, 2, seed=14))
    assert est <= exact + 1e-9
    assert est >= 0.99 * exact


def test_support_gap_3d_cube_vs_octahedron():
    normals = np.vstack([np.eye(3), -np.eye(3)])
    outer = make_outer(normals, np.ones(6))  # the cube [-1, 1]^3
    octa = PointCloud(np.vstack([np.eye(3), -np.eye(3)]))
    probes = sample_uniform(4000, 3, seed=6)
    est = outer_error(outer, octa, probes)
    exact = 2.0 / math.sqrt(3)  # cube corner to the octahedron facet
    assert est <= exact + 1e-9
    assert est >= 0.97 * exact


def test_support_gap_monotone_in_probes():
    outer = rotated_square_outer()
    probes = sample_uniform(512, 2, seed=7)
    vals = [
        support_gap(outer, PointCloud(SQUARE), probes.prefix(m)) for m in (8, 32, 128, 512)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_unbounded_2d_raises():
    outer = make_outer([[1.0, 0], [0, 1]], [1.0, 1.0])
    with pytest.raises(UnboundedOuterHullError):
        outer_error(outer, PointCloud(SQUARE))
    # three normals with y >= 0 leave (0, -1) a recession direction
    outer = make_outer([[1.0, 0], [0, 1], [-0.6, 0.8]], [1.0, 1.0, 1.0])
    with pytest.raises(UnboundedOuterHullError):
        outer_error(outer, PointCloud(SQUARE))


def test_unbounded_lp_raises():
    normals = np.eye(3)
    outer = make_outer(normals, np.ones(3))
    probes = sample_uniform(8, 3, seed=8)
    with pytest.raises(UnboundedOuterHullError):
        outer_error(outer, PointCloud(np.eye(3)), probes)


def test_unbounded_lp_raises_4d():
    # 4-d goes straight to the LP, so this reaches its unbounded status
    outer = make_outer(np.eye(4), np.ones(4))
    probes = sample_uniform(8, 4, seed=8)
    with pytest.raises(UnboundedOuterHullError):
        outer_error(outer, PointCloud(np.eye(4)), probes)


def test_empty_2d_raises():
    # x <= -1 and x >= 1 bound the plane but share no point
    outer = make_outer([[1.0, 0], [-1, 0], [0, 1], [0, -1]], [-1.0, -1, 1, 1])
    with pytest.raises(EmptyOuterHullError):
        outer_error(outer, PointCloud(SQUARE))


def test_outer_vertices_2d_enumeration():
    verts = metrics._outer_vertices(rotated_square_outer(), np.zeros(2))
    expect = {(2, 0), (0, 2), (-2, 0), (0, -2)}
    got = {tuple(np.round(v, 9) + 0.0) for v in verts}
    assert got == expect


def no_lp(*args):
    raise AssertionError("LP called")


@pytest.mark.parametrize("m", [20, 200])
@pytest.mark.parametrize("kind", ["ball", "simplex", "cube"])
def test_exact_2d_outer_error_matches_halfplane_oracle(monkeypatch, kind, m):
    # The centroid of a sketched cloud is inside its outer hull, so neither
    # the Chebyshev retry nor a support LP runs.
    monkeypatch.setattr(metrics, "_chebyshev_centre", no_lp)
    monkeypatch.setattr(metrics, "support_under_constraints", no_lp)
    points = generate(ShapeSpec(kind=kind, dim=2, count=500, seed=41)).points
    cloud, dirs = PointCloud(points), sample_uniform(m, 2, seed=42)
    outer = outer_hull(build_sketch(cloud, dirs), cloud, dirs)
    verts = halfplane_vertices(outer.normals, outer.offsets)
    want = max(polygon_distance(v, points) for v in verts)
    assert outer_error(outer, PointCloud(points)) == pytest.approx(want, rel=1e-9)
    probes = sample_uniform(50, 2, seed=43)
    got = _outer_support(outer, probes, points.mean(axis=0))
    extent = np.abs(points).max()
    assert np.max(np.abs(got - (verts @ probes.directions.T).max(axis=0))) <= 1e-12 * extent


def test_2d_retries_at_the_chebyshev_centre(monkeypatch):
    # The rectangle [-1, -1/2] x [-1, 1] does not hold the triangle's
    # centroid (-1/3, -1/3); its corner (-1/2, 1) lies 1 / (2 sqrt 2) past
    # the hypotenuse x + y = 0.
    normals = [[1.0, 0], [-1, 0], [0, 1], [0, -1]]
    outer = make_outer(normals, [-0.5, 1, 1, 1])
    triangle = np.array([[-1.0, -1], [1, -1], [-1, 1]])
    calls = []
    chebyshev = metrics._chebyshev_centre
    monkeypatch.setattr(
        metrics, "_chebyshev_centre", lambda *a: calls.append(1) or chebyshev(*a)
    )
    res = outer_error(outer, PointCloud(triangle))
    assert calls == [1]
    assert res == pytest.approx(1 / (2 * math.sqrt(2)), rel=1e-12)
    want = max(polygon_distance(v, triangle) for v in halfplane_vertices(outer.normals, outer.offsets))
    assert res == pytest.approx(want, rel=1e-12)


def test_support_under_constraints_matches_vertex_max():
    outer = rotated_square_outer()
    d = np.array([1.0, 0.0])
    assert support_under_constraints(outer, d) == pytest.approx(2.0, abs=1e-9)


def test_errors_non_increasing_over_nested_directions():
    rng = np.random.default_rng(9)
    cloud = PointCloud(rng.standard_normal((150, 2)))
    dirs = sample_uniform(160, 2, seed=10)
    sketch_full = build_sketch(cloud, dirs)
    reference = PointCloud(cloud.points)
    inner_vals, outer_vals = [], []
    for m in (20, 40, 80, 160):
        prefix = dirs.prefix(m)
        sub = build_sketch(cloud, prefix)
        inner = threshold_filter(sub, 0.0)
        inner_vals.append(inner_error(reference, PointCloud(inner.select(cloud))))
        outer_vals.append(outer_error(outer_hull(sub, cloud, prefix), reference))
    assert all(b <= a + 1e-9 for a, b in zip(inner_vals, inner_vals[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(outer_vals, outer_vals[1:]))


# --- 3-d outer support from the halfspace intersection's vertices ----------


def count_lp_calls(monkeypatch):
    calls = []

    def counted(outer, d):
        calls.append(1)
        return support_under_constraints(outer, d)

    monkeypatch.setattr(metrics, "support_under_constraints", counted)
    return calls


def shape_3d(kind, **kw):
    return generate(ShapeSpec(kind=kind, dim=3, count=2000, seed=31, **kw)).points


CLOUDS_3D = {
    "cube": lambda: shape_3d("cube"),
    "ball": lambda: shape_3d("ball"),
    "sheared-simplex": lambda: shape_3d("simplex", transform=SHEAR),
    # eight corners won by 400 directions: about 50 planes through each vertex
    "cube-corners": lambda: np.vstack([CUBE, 0.5 * CUBE]),
    "cube*1e-9": lambda: shape_3d("cube") * 1e-9,
    "cube*1e9": lambda: shape_3d("cube") * 1e9,
    "cube+1e9": lambda: shape_3d("cube") + 1e9,
    # thin clouds whose sketch planes are tilted: the outer hull stays thick
    "cube, z*1e-6": lambda: shape_3d("cube") * [1, 1, 1e-6],
    "cube, z*1e-9": lambda: shape_3d("cube") * [1, 1, 1e-9],
}


@pytest.mark.parametrize("name", list(CLOUDS_3D))
def test_vertex_support_matches_lp(monkeypatch, name):
    points = CLOUDS_3D[name]()
    cloud, dirs = PointCloud(points), sample_uniform(400, 3, seed=34)
    outer = outer_hull(build_sketch(cloud, dirs), cloud, dirs)
    probes = sample_uniform(60, 3, seed=35)
    calls = count_lp_calls(monkeypatch)
    got = _outer_support(outer, probes, points.mean(axis=0))
    assert calls == []  # the vertex path, not one LP per probe
    # HiGHS's absolute tolerances (1e-7) exceed a cloud at 1e-9 scale, so the
    # reference LP runs in units of a power of two near the cloud's extent;
    # dividing the offsets by it is exact, so the halfspaces are the same.
    unit = 2.0 ** round(math.log2(np.ptp(points)))
    unit_outer = make_outer(outer.normals, outer.offsets / unit)
    want = unit * np.array(
        [support_under_constraints(unit_outer, d) for d in probes.directions]
    )
    # the largest absolute coordinate: a cloud offset by 1e9 is only given to eps * 1e9
    extent = np.abs(points).max()
    assert np.max(np.abs(got - want)) <= 1e-9 * extent
    assert np.all(got >= probe_support(PointCloud(points), probes) - 1e-9 * extent)


UNBOUNDED_NORMALS = {
    # the z axis is a recession direction
    "coplanar": [[1.0, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0.6, 0.8, 0]],
    # the origin is on a facet of the normals' hull
    "closed-half-space": [[1.0, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0, 0, 1], [0.6, 0, 0.8]],
    "open-half-space": [[0.6, 0, 0.8], [-0.6, 0, 0.8], [0, 0.6, 0.8], [0, -0.6, 0.8], [0, 0, 1]],
}


@pytest.mark.parametrize("rotation", range(4))
@pytest.mark.parametrize("name", list(UNBOUNDED_NORMALS))
def test_vertex_path_unbounded_raises(monkeypatch, name, rotation):
    # Offsets large enough that the centroid is strictly inside, so the
    # boundedness check runs before Qhull and no LP is solved.  Rotations put
    # rounding noise on the origin's distance to the normals' hull.
    monkeypatch.setattr(metrics, "support_under_constraints", no_lp)
    normals = np.array(UNBOUNDED_NORMALS[name])
    if rotation:
        q, _ = np.linalg.qr(np.random.default_rng(rotation).standard_normal((3, 3)))
        normals = normals @ q.T
    outer = make_outer(normals, np.full(len(normals), 10.0))
    with pytest.raises(UnboundedOuterHullError):
        outer_error(outer, PointCloud(CUBE), sample_uniform(20, 3, seed=36))


def count_chebyshev_retries(monkeypatch):
    calls = []
    chebyshev = metrics._chebyshev_centre
    monkeypatch.setattr(
        metrics, "_chebyshev_centre", lambda *a: calls.append(1) or chebyshev(*a)
    )
    return calls


def test_centroid_on_a_boundary_retries_at_the_chebyshev_centre(monkeypatch):
    # the cube [-1, 1]^3 cut by x <= 0, a plane through the cube's centroid
    normals = np.vstack([np.eye(3), -np.eye(3), [[1.0, 0, 0]]])
    outer = make_outer(normals, [1.0, 1, 1, 1, 1, 1, 0])
    probes = sample_uniform(30, 3, seed=37)
    want = np.array([support_under_constraints(outer, d) for d in probes.directions])
    calls, retries = count_lp_calls(monkeypatch), count_chebyshev_retries(monkeypatch)
    got = _outer_support(outer, probes, CUBE.mean(axis=0))
    assert (len(retries), len(calls)) == (1, 0)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.abs(CUBE).max()
    res = outer_error(outer, PointCloud(CUBE), probes)
    h_true = probe_support(PointCloud(CUBE), probes)
    assert res == pytest.approx(max(0.0, float(np.max(want - h_true))), abs=1e-9)
    # x <= 0 and -x <= 0 leave the square x = 0, bounded but without interior
    flat = make_outer(np.vstack([normals, [[-1.0, 0, 0]]]), [1.0, 1, 1, 1, 1, 1, 0, 0])
    with pytest.raises(EmptyOuterHullError, match="no interior"):
        outer_error(flat, PointCloud(CUBE), probes)


def test_qhull_refusing_both_attempts_leaves_no_interior(monkeypatch):
    # Qhull rejects the halfspaces around the centroid, and once more around
    # the Chebyshev centre: the last resort of _outer_vertices
    import scipy.spatial
    from scipy.spatial import QhullError

    def refuse(*args, **kwargs):
        raise QhullError("refused")

    monkeypatch.setattr(scipy.spatial, "HalfspaceIntersection", refuse)
    calls, retries = count_lp_calls(monkeypatch), count_chebyshev_retries(monkeypatch)
    cube = make_outer(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6))
    with pytest.raises(EmptyOuterHullError, match="^outer hull has no interior$"):
        outer_error(cube, PointCloud(CUBE), sample_uniform(20, 3, seed=36))
    assert (len(retries), len(calls)) == (1, 0)


def with_axes(dirs):
    return DirectionSet(np.vstack([np.eye(3), -np.eye(3), dirs.directions]), seed=dirs.seed)


@pytest.mark.parametrize("power", [20, 30, 40])
def test_vertex_support_on_a_thin_outer_hull(monkeypatch, power):
    # The axis directions put two planes on the faces of a slab 2^-power
    # thick, so the outer hull itself is thin.  The LP is no reference here:
    # HiGHS's absolute tolerances leave it up to 9e-8 off.  Multiplying z by
    # 2^power is exact and makes the same halfspaces round, so Qhull's
    # vertices in that frame are.
    scale = np.array([1.0, 1.0, 2.0**-power])
    points = shape_3d("cube") * scale
    cloud, dirs = PointCloud(points), with_axes(sample_uniform(400, 3, seed=34))
    outer = outer_hull(build_sketch(cloud, dirs), cloud, dirs)
    probes = sample_uniform(60, 3, seed=35)
    calls = count_lp_calls(monkeypatch)
    got = _outer_support(outer, probes, points.mean(axis=0))
    assert calls == []
    from scipy.spatial import HalfspaceIntersection

    round_hull = HalfspaceIntersection(
        np.column_stack([outer.normals * scale, -outer.offsets]), points.mean(axis=0) / scale
    )
    want = (round_hull.intersections * scale @ probes.directions.T).max(axis=0)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.abs(points).max()


@pytest.mark.parametrize("depth", [1e-6, 1e-12])
def test_interior_point_near_a_face(monkeypatch, depth):
    # The interior point sits `depth` inside the plane most aligned with +x.
    # No frame pulls in the one far dual point that leaves; at 1e-12 Qhull
    # would merge away vertices (an error of 5e-3), so that case retries at
    # the Chebyshev centre.
    points = shape_3d("cube")
    cloud, dirs = PointCloud(points), sample_uniform(400, 3, seed=34)
    outer = outer_hull(build_sketch(cloud, dirs), cloud, dirs)
    i = np.argmax(outer.normals[:, 0])
    centroid = points.mean(axis=0)
    interior = centroid + (outer.offsets[i] - outer.normals[i] @ centroid - depth) * outer.normals[i]
    probes = sample_uniform(60, 3, seed=35)
    want = np.array([support_under_constraints(outer, d) for d in probes.directions])
    calls, retries = count_lp_calls(monkeypatch), count_chebyshev_retries(monkeypatch)
    got = _outer_support(outer, probes, interior)
    assert (len(retries), len(calls)) == (1 if depth < 1e-8 else 0, 0)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.abs(points).max()


# --- the support LP in 4-d and up ------------------------------------------


@pytest.mark.parametrize("dim", [4, 5])
def test_lp_outer_error_does_not_depend_on_units_or_position(dim):
    # HiGHS's tolerances are absolute (1e-7); solved in the cloud's own units,
    # the 4-d error of the 1e-9 copy, divided by 1e-9, read 25.2 against 0.114.
    points = generate(ShapeSpec(kind="cube", dim=dim, count=2000, seed=31)).points
    cloud, dirs = PointCloud(points), sample_uniform(300, dim, seed=34)
    outer = outer_hull(build_sketch(cloud, dirs), cloud, dirs)
    probes = sample_uniform(40, dim, seed=35)
    unit = outer_error(outer, PointCloud(points), probes)
    assert unit > 0.05
    for scale, shift in [(1e-9, 0.0), (1e9, 0.0), (1.0, 1e3)]:
        moved = np.full(dim, shift)
        copy = make_outer(outer.normals, scale * outer.offsets + outer.normals @ moved)
        got = outer_error(copy, PointCloud(scale * points + moved), probes)
        assert got / scale == pytest.approx(unit, rel=1e-9), (scale, shift)


# --- the value's type on every path ----------------------------------------

CROSS_3D, CROSS_4D = np.vstack([np.eye(3), -np.eye(3)]), np.vstack([np.eye(4), -np.eye(4)])
# outer hull, reference points, probes, Chebyshev retries, support LPs
OUTER_ERROR_PATHS = {
    "2-d exact": (axis_square_outer(), SQUARE, None, 0, 0),
    "2-d Chebyshev retry": (
        make_outer([[1.0, 0], [-1, 0], [0, 1], [0, -1]], [-0.5, 1, 1, 1]),
        np.array([[-1.0, -1], [1, -1], [-1, 1]]), None, 1, 0,
    ),
    "3-d vertices": (make_outer(CROSS_3D, np.ones(6)), CROSS_3D, sample_uniform(20, 3, seed=6), 0, 0),
    "3-d Chebyshev retry": (
        make_outer(np.vstack([CROSS_3D, [[1.0, 0, 0]]]), [1.0, 1, 1, 1, 1, 1, 0]),
        CUBE, sample_uniform(20, 3, seed=37), 1, 0,
    ),
    "4-d LPs": (make_outer(CROSS_4D, np.ones(8)), CROSS_4D, sample_uniform(20, 4, seed=38), 0, 20),
}


@pytest.mark.parametrize("path", list(OUTER_ERROR_PATHS))
def test_outer_error_returns_a_float_on_every_path(monkeypatch, path):
    outer, points, probes, retries, lps = OUTER_ERROR_PATHS[path]
    lp_calls, centres = count_lp_calls(monkeypatch), count_chebyshev_retries(monkeypatch)
    value = outer_error(outer, PointCloud(points), probes)
    assert type(value) is float
    assert (len(centres), len(lp_calls)) == (retries, lps)


def test_reference_hull_at_the_cap_boundary():
    cloud = generate(ShapeSpec(kind="ball", dim=2, count=60, seed=3))
    ref, tag = reference_hull(cloud, 60, seed=11)
    assert tag == "oracle"
    np.testing.assert_array_equal(ref.points, cloud.points[exact_extreme_points(cloud)])
    # one row over the cap: the extreme rows of the 59-row subsample drawn with the seed
    ref, tag = reference_hull(cloud, 59, seed=11)
    rng = np.random.Generator(np.random.PCG64(11))
    sub = PointCloud(cloud.points[np.sort(rng.choice(60, size=59, replace=False))])
    assert tag == "oracle-subsample"
    np.testing.assert_array_equal(ref.points, sub.points[exact_extreme_points(sub)])


def test_accuracy_curve_matches_standalone_sketches_in_the_plane():
    # each row is what the sketch on that many directions gives on its own;
    # two directions leave the outer hull open, an infinite outer error
    cloud = generate(ShapeSpec(kind="ball", dim=2, count=400, seed=5))
    dirs = sample_uniform(120, 2, seed=6)
    reference, _ = reference_hull(cloud, 400, seed=0)
    rows = accuracy_curve(build_sketch(cloud, dirs), [2, 30, 120], reference, None,
                          alpha=0.0, mode="hard", filter_seed=7)
    assert [r["n_dirs"] for r in rows] == [2, 30, 120]
    assert rows[0]["outer_error"] == math.inf
    for row in rows:
        prefix = dirs.prefix(row["n_dirs"])
        sketch = build_sketch(cloud, prefix)
        inner = threshold_filter(sketch, 0.0, "hard", 7)
        assert row["n_found"] == np.count_nonzero(sketch.counts)
        assert row["n_kept"] == len(inner)
        assert row["inner_error"] == inner_error(reference, PointCloud(inner.select(cloud)))
        if row["n_dirs"] > 2:
            assert row["outer_error"] == outer_error(outer_hull(sketch, cloud, prefix), cloud)
    assert rows[2]["inner_error"] <= rows[1]["inner_error"] < rows[0]["inner_error"]
    assert rows[2]["outer_error"] <= rows[1]["outer_error"]
    # a threshold that keeps nothing leaves no inner hull: an infinite inner error
    empty = accuracy_curve(build_sketch(cloud, dirs), [120], reference, None,
                           alpha=1.0, mode="hard", filter_seed=7)
    assert empty[0]["n_kept"] == 0 and empty[0]["inner_error"] == math.inf
