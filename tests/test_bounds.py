import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hullsketch import (
    BoundQuery,
    PointCloud,
    aleksandrov_bound,
    build_sketch,
    cap_lower_bound,
    chebyshev_bound,
    direction_count_bound,
    directions_for_inner_error,
    hausdorff,
    sample_uniform,
    sphere_surface_measure,
)

from oracles import mc_cap_fraction, polygon_vertex_curvatures


def test_chebyshev_value():
    assert chebyshev_bound(0.25, 1000, 0.05) == pytest.approx(0.075)


def test_chebyshev_limit_and_clip():
    assert chebyshev_bound(0.5, 10**12, 0.05) == pytest.approx(0.0, abs=1e-9)
    assert chebyshev_bound(0.5, 1, 0.001) == 1.0


def test_chebyshev_validation():
    with pytest.raises(ValueError):
        chebyshev_bound(0.0, 10, 0.1)
    with pytest.raises(ValueError):
        chebyshev_bound(0.5, 0, 0.1)
    with pytest.raises(ValueError):
        chebyshev_bound(0.5, 10, 0.0)


def test_chebyshev_holds_empirically_on_square():
    square = PointCloud([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    m, eps, trials = 1000, 0.05, 300
    violations = 0
    for t in range(trials):
        kd = build_sketch(square, sample_uniform(m, 2, seed=70_000 + t)).curvatures()
        violations += int(abs(kd[0] - 0.25) > eps)
    assert violations / trials <= chebyshev_bound(0.25, m, eps)


def test_direction_count_value():
    assert direction_count_bound(0.25, 0.05) == 16
    # sanity: that count drives the miss probability below p
    assert (1 / 0.25) * (1 - 0.25) ** 16 <= 0.05


def test_direction_count_omega_near_one():
    assert direction_count_bound(0.999999, 0.5) == 1


def test_direction_count_validation():
    for bad in (0.0, 1.0, -1.0):
        with pytest.raises(ValueError):
            direction_count_bound(bad, 0.05)
        with pytest.raises(ValueError):
            direction_count_bound(0.5, bad)


def test_direction_count_curve_shape():
    # y(x) = log(0.05 x) / log(1 - x) grows like 1/x: x*y stays in a narrow band
    xs = np.linspace(0.005, 0.3, 40)
    ys = np.array([math.log(0.05 * x) / math.log1p(-x) for x in xs])
    assert np.all(np.diff(ys) < 0)  # decreasing in omega
    band = xs * ys
    assert band.min() >= 2.0 and band.max() <= 12.0


def test_cap_bound_endpoints():
    assert cap_lower_bound(math.pi, 5) == pytest.approx(0.5)
    assert cap_lower_bound(0.0, 3) == 0.0


def test_cap_bound_below_measured_half_angle():
    for n, theta in ((2, math.pi / 2), (3, math.pi / 2), (3, 1.0), (4, 2.0)):
        measured = mc_cap_fraction(theta, n, samples=200_000, seed=n * 17)
        assert cap_lower_bound(theta, n) <= measured + 0.005


def test_aleksandrov_value():
    assert aleksandrov_bound(1.0, 2, 0.01) == pytest.approx(math.sqrt(2) * math.pi * 0.02)
    assert aleksandrov_bound(1.0, 3, 1e-12) <= 1e-5


def test_aleksandrov_empirical_2d_polygon():
    rng = np.random.default_rng(44)
    for trial in range(20):
        k = int(rng.integers(21, 40))
        ang = np.sort(rng.random(k) * 2 * math.pi)
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
        pts -= pts.mean(axis=0)
        r = float(np.linalg.norm(pts, axis=1).max())
        curv = polygon_vertex_curvatures(pts)
        order = sorted(curv, key=curv.get)
        dropped, omega = [], 0.0
        for i in order:
            if omega + curv[i] > 0.05:
                break
            omega += curv[i]
            dropped.append(i)
        if not dropped:
            continue
        keep = [i for i in range(k) if i not in dropped]
        dist = hausdorff(PointCloud(pts), PointCloud(pts[keep]))
        assert dist <= aleksandrov_bound(r, 2, omega) + 1e-9


def test_remark_tables_worst_case():
    # reported orders of magnitude: 1e10, 1e11, 1e13, 1e15, 1e17 for n = 3..7
    expected = {3: 10, 4: 11, 5: 13, 6: 15, 7: 17}
    for n, exp in expected.items():
        q = BoundQuery(n=n, r=1.0, p=0.05, eps=0.1, x_count=10_000)
        got = directions_for_inner_error(q, "worst-case")
        assert abs(math.log10(got) - exp) <= 1.0


def test_remark_tables_single_point():
    expected = {3: 5, 4: 7, 5: 9, 6: 11, 7: 13}
    for n, exp in expected.items():
        q = BoundQuery(n=n, r=1.0, p=0.05, eps=0.1, x_count=10_000)
        got = directions_for_inner_error(q, "single-point")
        assert abs(math.log10(got) - exp) <= 1.0


def test_worst_case_dominates_single_point():
    for n in (3, 5, 7):
        q = BoundQuery(n=n, r=1.0, p=0.05, eps=0.1, x_count=50)
        assert directions_for_inner_error(q, "worst-case") >= directions_for_inner_error(
            q, "single-point"
        )


def test_large_error_target_needs_one_direction():
    n = 4
    eps = math.sqrt(2) * math.pi * 2 ** (1 / (n - 1)) + 0.1
    q = BoundQuery(n=n, r=1.0, p=0.05, eps=eps, x_count=100)
    assert directions_for_inner_error(q, "worst-case") == 1


def test_directions_monotone_in_eps():
    counts = [
        directions_for_inner_error(BoundQuery(n=4, r=1.0, p=0.05, eps=e, x_count=10))
        for e in (0.05, 0.1, 0.2, 0.5, 1.0)
    ]
    assert all(b <= a for a, b in zip(counts, counts[1:]))


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.01, 0.99),
    st.floats(0.01, 0.99),
    st.integers(1, 10_000),
)
def test_bound_monotonicities(omega, p, m):
    assert chebyshev_bound(0.3, m, 0.05) >= chebyshev_bound(0.3, m + 10, 0.05)
    assert direction_count_bound(omega, p) >= direction_count_bound(min(0.999, omega + 0.005), p)
    assert aleksandrov_bound(1.0, 3, omega) <= aleksandrov_bound(1.0, 3, min(1.0, omega + 0.005))
    assert aleksandrov_bound(1.0, 3, omega) <= aleksandrov_bound(2.0, 3, omega)


def test_sphere_surface_measure_values():
    assert sphere_surface_measure(2) == pytest.approx(2 * math.pi)
    assert sphere_surface_measure(3) == pytest.approx(4 * math.pi)
    assert sphere_surface_measure(4) == pytest.approx(2 * math.pi**2)


def test_bound_query_validation():
    with pytest.raises(ValueError):
        BoundQuery(n=1, r=1.0, p=0.05, eps=0.1)
    with pytest.raises(ValueError):
        BoundQuery(n=3, r=0.0, p=0.05, eps=0.1)
    with pytest.raises(ValueError):
        BoundQuery(n=3, r=1.0, p=1.5, eps=0.1)
    with pytest.raises(ValueError):
        BoundQuery(n=3, r=1.0, p=0.05, eps=0.1, x_count=0)
    with pytest.raises(ValueError):
        directions_for_inner_error(BoundQuery(n=3, r=1.0, p=0.05, eps=0.1), "typical")
