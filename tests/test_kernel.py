import numpy as np
import pytest

from accd.counters import CounterSet
from accd.dataset import Dataset, pairwise_brute
from accd.errors import DimensionMismatchError, RangeError
from accd.explorer import DesignConfig
from accd.kernel import rss, tile_distances
from accd.metrics import MetricSpec

L1 = MetricSpec(kind="L1")
L2 = MetricSpec(kind="L2")


# -- rss --------------------------------------------------------------------


def test_rss_zero_matrix():
    assert np.array_equal(rss(np.zeros((4, 3))), np.zeros(4))


def test_rss_three_four_row():
    assert rss(np.array([[3.0, 4.0]]))[0] == 25.0


def test_rss_matches_scalar_loop_bitwise():
    r = np.random.default_rng(2)
    mat = r.normal(size=(100, 30))
    got = rss(mat)
    for i in range(100):
        acc = 0.0
        for v in mat[i]:
            acc += v * v
        assert got[i] == acc


def test_rss_row_scaling():
    r = np.random.default_rng(3)
    row = r.normal(size=(1, 8))
    for c in (2.0, 0.5, 4.0):
        assert np.allclose(rss(c * row), c * c * rss(row), rtol=1e-15)


# -- blocked distances -------------------------------------------------------


def test_identical_point_distance_exactly_zero():
    a = np.array([[0.3, -0.7, 2.2]])
    out = tile_distances(a, a, L2, 64)
    assert out[0, 0] == 0.0


def test_blocked_matches_brute_within_tolerance():
    r = np.random.default_rng(5)
    a = Dataset.from_values(r.normal(size=(200, 37)))
    b = Dataset.from_values(r.normal(size=(150, 37)))
    brute = pairwise_brute(a, b, L2, CounterSet()).values
    got = tile_distances(a.values, b.values, L2, 64, CounterSet())
    assert np.all(np.abs(got - brute) <= 1e-10 * np.maximum(1.0, brute))


def test_blocked_l1_matches_brute():
    r = np.random.default_rng(6)
    a = Dataset.from_values(r.normal(size=(90, 12)))
    b = Dataset.from_values(r.normal(size=(80, 12)))
    brute = pairwise_brute(a, b, L1, CounterSet()).values
    got = tile_distances(a.values, b.values, L1, 32, CounterSet())
    assert np.all(np.abs(got - brute) <= 1e-10 * np.maximum(1.0, brute))


def test_weighted_l2_blocked():
    r = np.random.default_rng(7)
    w = np.abs(r.normal(size=9))
    m = MetricSpec(kind="L2", weighted=True, weights=w)
    a = Dataset.from_values(r.normal(size=(40, 9)))
    b = Dataset.from_values(r.normal(size=(30, 9)))
    brute = pairwise_brute(a, b, m, CounterSet()).values
    got = tile_distances(a.values, b.values, m, 16, CounterSet())
    assert np.all(np.abs(got - brute) <= 1e-10 * np.maximum(1.0, brute))


def test_outputs_bit_identical_across_configs():
    # blk only shapes the counters, and a sub-tile holds exactly the values
    # of the same entries in a larger tile
    r = np.random.default_rng(8)
    a = r.normal(size=(120, 21))
    b = r.normal(size=(95, 21))
    reference = tile_distances(a, b, L2, 64)
    for blk in (1, 2, 8):
        assert np.array_equal(tile_distances(a, b, L2, blk), reference), blk
    rows, cols = np.arange(3, 120, 7), np.arange(10, 40)
    sub = tile_distances(a[rows], b[cols], L2, 64, rss_a=rss(a)[rows], rss_b=rss(b)[cols])
    assert np.array_equal(sub, reference[np.ix_(rows, cols)])


def test_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        tile_distances(np.zeros((2, 3)), np.zeros((2, 4)), L2, 64)


def test_config_validation():
    # the kernel's tile edge comes from the design, which rejects blk < 1
    with pytest.raises(RangeError):
        DesignConfig(n_src_grp=1, n_trg_grp=1, blk=0, simd=1, unroll=1)


# -- counters -----------------------------------------------------------------


def test_counters_count_each_pair_once():
    r = np.random.default_rng(9)
    a = Dataset.from_values(r.normal(size=(70, 5)))
    b = Dataset.from_values(r.normal(size=(55, 5)))
    c = CounterSet()
    tile_distances(a.values, b.values, L2, 16, c)
    assert c.point_distances == 70 * 55
    assert c.mac_ops == 70 * 55 * 5
    assert c.tiles_executed == int(np.ceil(70 / 16)) * int(np.ceil(55 / 16))
    # each of the 5 x 4 tiles streams its row and column slabs once
    assert c.bytes_streamed == (70 * 4 + 55 * 5) * 5 * 8
