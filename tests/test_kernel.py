import warnings

import numpy as np
import pytest

from accd.counters import CounterSet
from accd.dataset import Dataset, brute_rows
from accd.errors import DimensionMismatchError
from accd.kernel import fast_rows, tile_distances
from accd.metrics import MetricSpec, rowwise_distance

from conftest import direct_tile, domain_scales

L1 = MetricSpec(kind="L1")
L2 = MetricSpec(kind="L2")


def _metric(name: str, d: int) -> MetricSpec:
    kind = name.split()[-1]
    if name.startswith("weighted"):
        w = np.random.default_rng(1).uniform(0.1, 3.0, size=d)
        return MetricSpec(kind=kind, weighted=True, weights=w)
    return MetricSpec(kind=kind)


def _tile(a, b, metric, counters=None):
    """The kernel on rows prepared around the source set's mean."""
    centre = a.mean(axis=0)
    rows_a, rows_b = fast_rows(a, centre, metric), fast_rows(b, centre, metric)
    return tile_distances(rows_a, rows_b, metric, counters)


# -- the error bound -----------------------------------------------------------


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6, 1e7])
@pytest.mark.parametrize("name", ["L1", "L2", "weighted L1", "weighted L2"])
def test_fast_values_lie_within_the_returned_bound(name, offset):
    r = np.random.default_rng(11)
    d = 7
    metric = _metric(name, d)
    a = r.normal(size=(60, d)) * 3 + offset
    # duplicates and near-duplicates of source rows give zero and tiny
    # distances, where the L2 bound is loosest
    b = np.vstack([r.normal(size=(40, d)) * 3 + offset, a[:5], a[5:10] + 1e-6])
    tile, err = _tile(a, b, metric)
    direct = _assert_bounded(a, b, tile, err, metric)
    # tight enough to settle all but near-ties
    assert np.all(err <= 1e-6 * direct.max())
    if metric.kind == "L2":  # one bound for the whole tile
        assert np.all(err == err[0])


def _assert_bounded(a, b, tile, err, metric):
    """|tile - direct| <= err against the direct values in tile scale,
    under L2 the squared sums whose roots are ``rowwise_distance``."""
    rows, cols = np.divmod(np.arange(a.shape[0] * b.shape[0]), b.shape[0])
    dist = rowwise_distance(a[rows], b[cols], metric).reshape(tile.shape)
    direct = direct_tile(a, b, metric)
    assert np.array_equal(direct if metric.kind == "L1" else np.sqrt(direct), dist)
    assert np.all(np.abs(tile - direct) <= err[:, None])
    return direct


@pytest.mark.parametrize("name", ["L2", "weighted L2"])
def test_l2_tiles_stay_finite_and_bounded_at_the_domain_limit(name):
    # the source set's mean is one corner of the box and some targets sit
    # at the opposite one, so their centred rows span every coordinate's
    # full spread: a tile of them against each other sums terms of
    # absolute sum 2D, all the room ``check_domain`` leaves, at the largest
    # scale it admits
    r = np.random.default_rng(4)
    d = 6
    metric = _metric(name, d)
    src = np.full((2, d), -1.0)  # whose mean is exact at any scale
    trg = np.vstack([np.ones((5, d)), r.uniform(-1.0, 1.0, size=(30, d))])
    scale, _ = domain_scales([metric], [src, trg])
    src, trg = src * scale, trg * scale
    centre = src.mean(axis=0)
    assert np.array_equal(centre, src[0])
    rows_src, rows_trg = fast_rows(src, centre, metric), fast_rows(trg, centre, metric)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for a, rows_a in ((src, rows_src), (trg, rows_trg)):
            tile, err = tile_distances(rows_a, rows_trg, metric)
            assert np.all(np.isfinite(tile)) and np.all(np.isfinite(err))
            _assert_bounded(a, trg, tile, err, metric)


# -- fast tiles ----------------------------------------------------------------


def test_identical_point_distance_exactly_zero():
    a = np.array([[0.3, -0.7, 2.2], [1.0, 4.0, -3.0], [0.3, -0.7, 2.2]])
    # cdist differences directly, so identical rows give exactly zero
    assert np.all(np.diag(tile_distances(a, a, L1)[0]) == 0.0)
    # the matmul form leaves their squares within the bound of zero
    tile, err = _tile(a, a, L2)
    assert np.all(np.diag(tile) <= err)


def test_blocked_matches_brute_within_tolerance():
    r = np.random.default_rng(5)
    a = Dataset.from_values(r.normal(size=(200, 37)))
    b = Dataset.from_values(r.normal(size=(150, 37)))
    brute = direct_tile(a.values, b.values, L2)
    got, err = _tile(a.values, b.values, L2, CounterSet())
    assert np.all(np.abs(got - brute) <= err[:, None])
    assert np.all(np.abs(got - brute) <= 1e-10 * np.maximum(1.0, brute))


def test_blocked_l1_matches_brute():
    r = np.random.default_rng(6)
    a = Dataset.from_values(r.normal(size=(90, 12)))
    b = Dataset.from_values(r.normal(size=(80, 12)))
    brute = brute_rows(a.values, b.values, L1)
    got, err = _tile(a.values, b.values, L1, CounterSet())
    assert np.all(np.abs(got - brute) <= err[:, None])
    assert np.all(np.abs(got - brute) <= 1e-10 * np.maximum(1.0, brute))


def test_weighted_l2_blocked():
    r = np.random.default_rng(7)
    w = np.abs(r.normal(size=9))
    m = MetricSpec(kind="L2", weighted=True, weights=w)
    a = Dataset.from_values(r.normal(size=(40, 9)))
    b = Dataset.from_values(r.normal(size=(30, 9)))
    brute = direct_tile(a.values, b.values, m)
    got, err = _tile(a.values, b.values, m, CounterSet())
    assert np.all(np.abs(got - brute) <= err[:, None])
    assert np.all(np.abs(got - brute) <= 1e-10 * np.maximum(1.0, brute))


def test_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        tile_distances(np.zeros((2, 3)), np.zeros((2, 4)), L2)


# -- counters -----------------------------------------------------------------


def test_counters_count_each_pair_once():
    r = np.random.default_rng(9)
    a = Dataset.from_values(r.normal(size=(70, 5)))
    b = Dataset.from_values(r.normal(size=(55, 5)))
    c = CounterSet()
    _tile(a.values, b.values, L2, c)
    assert c.point_distances == 70 * 55
    assert c.mac_ops == 70 * 55 * 5
    # one call is one tile, which reads each operand row once
    assert c.tiles_executed == 1
    assert c.bytes_streamed == (70 + 55) * 5 * 8
