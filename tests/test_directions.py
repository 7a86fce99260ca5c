import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from hullsketch import PointCloud, build_sketch, sample_uniform
from hullsketch import directions
from hullsketch.directions import DirectionSet, _ndtri


def test_unit_norms():
    ds = sample_uniform(1000, 3, seed=7)
    assert np.abs(np.linalg.norm(ds.directions, axis=1) - 1.0).max() <= 1e-12


def test_bit_reproducible():
    a = sample_uniform(500, 4, seed=99)
    b = sample_uniform(500, 4, seed=99)
    assert np.array_equal(a.directions, b.directions)


def test_different_seeds_differ():
    a = sample_uniform(50, 3, seed=1)
    b = sample_uniform(50, 3, seed=2)
    assert not np.array_equal(a.directions, b.directions)


def test_prefix_stability():
    small = sample_uniform(120, 3, seed=5)
    large = sample_uniform(480, 3, seed=5)
    assert np.array_equal(small.directions, large.directions[:120])
    assert np.array_equal(large.prefix(120).directions, small.directions)


def test_quarter_circle_uniformity():
    ds = sample_uniform(100_000, 2, seed=1)
    angles = np.arctan2(ds.directions[:, 1], ds.directions[:, 0])
    frac = np.mean((angles >= 0.0) & (angles < np.pi / 2))
    assert abs(frac - 0.25) <= 0.01


def test_mean_direction_concentrates():
    ds = sample_uniform(100_000, 3, seed=2)
    assert np.linalg.norm(ds.directions.mean(axis=0)) <= 0.02


def test_dimension_lower_bound():
    with pytest.raises(ValueError):
        sample_uniform(10, 1, seed=0)
    with pytest.raises(ValueError):
        sample_uniform(0, 3, seed=0)


def test_sketch_counts_add_over_concat():
    rng = np.random.default_rng(8)
    cloud = PointCloud(rng.standard_normal((60, 3)))
    a = sample_uniform(40, 3, seed=10)
    b = sample_uniform(25, 3, seed=11)
    both = build_sketch(cloud, DirectionSet(np.vstack([a.directions, b.directions]), seed=10))
    separate = build_sketch(cloud, a).counts + build_sketch(cloud, b).counts
    assert np.array_equal(both.counts, separate)


def test_direction_set_validation():
    with pytest.raises(ValueError):
        DirectionSet(np.array([[1.0, 1.0]]), seed=0)  # not unit
    with pytest.raises(ValueError):
        DirectionSet(np.zeros((0, 2)), seed=0)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 200),
    st.integers(2, 6),
    st.integers(0, 2**63 - 1),
)
def test_sampling_properties(m, n, seed):
    ds = sample_uniform(m, n, seed)
    assert len(ds) == m
    assert ds.dim == n
    assert np.all(np.isfinite(ds.directions))
    assert np.abs(np.linalg.norm(ds.directions, axis=1) - 1.0).max() <= 1e-12


def _assert_bits_equal(y):
    got, want = _ndtri(y), ndtri(y)
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    assert same.all(), (y[~same][:5], got[~same][:5], want[~same][:5])


def test_ndtri_port_matches_scipy_on_uniforms():
    _assert_bits_equal(np.random.Generator(np.random.PCG64(20170)).random(1_000_000))


def test_ndtri_port_matches_scipy_in_tails_and_at_branch_boundaries():
    rng = np.random.Generator(np.random.PCG64(3))
    deep = np.exp(-700.0 * rng.random(200_000))  # log-uniform down to e^-700
    edges = []
    for b in (math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0)):
        edges += [np.nextafter(b, 0.0), b, np.nextafter(b, 1.0)]
    special = [5e-324, 1e-300, 0.0, 0.5, 1.0, np.nextafter(1.0, 0.0), -0.5, 1.5, np.nan]
    _assert_bits_equal(np.concatenate([deep, 1.0 - deep, edges, special]))
    assert _ndtri(np.array([0.0, 1.0])).tolist() == [-np.inf, np.inf]


def _scipy_sample(m, n, seed):
    raw = ndtri(np.random.Generator(np.random.PCG64(seed)).random((m, n)))
    return raw / np.linalg.norm(raw, axis=1)[:, None]


@pytest.mark.parametrize("m,n", [(5000, 5), (1000, 3), (70000, 5), (7, 2)])
@pytest.mark.parametrize("seed", [0, 7919])
def test_sample_uniform_equals_scipy_formula(m, n, seed):
    assert np.array_equal(sample_uniform(m, n, seed).directions, _scipy_sample(m, n, seed))


def test_sample_uniform_redraws_rows_with_infinite_or_zero_norm(monkeypatch):
    calls = []

    def ndtri_with_bad_rows(y):
        out = _ndtri(y)
        if not calls:  # first draw: one row at -inf, one row all zero
            out[0, 0] = -np.inf
            out[2] = 0.0
        calls.append(len(y))
        return out

    monkeypatch.setattr(directions, "_ndtri", ndtri_with_bad_rows)
    got = sample_uniform(4, 3, seed=11).directions
    assert calls == [4, 2]
    # rows 0 and 2 take the next six generator outputs, in row order
    want = _scipy_sample(6, 3, 11)
    assert np.array_equal(got[[1, 3]], want[[1, 3]])
    assert np.array_equal(got[[0, 2]], want[[4, 5]])
