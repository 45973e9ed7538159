import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accd.errors import DimensionMismatchError, RangeError
from accd.metrics import MetricSpec, distance, gathered_distance, rowwise_distance

L1 = MetricSpec(kind="L1")
L2 = MetricSpec(kind="L2")


def test_identical_points_distance_zero():
    p = np.array([1.5, -2.0, 7.25])
    assert distance(p, p, L1) == 0.0
    assert distance(p, p, L2) == 0.0


def test_pythagorean_triple():
    assert distance([0.0, 0.0], [3.0, 4.0], L2) == 5.0


def test_weighted_l1_hand_computed():
    m = MetricSpec(kind="L1", weighted=True, weights=[2.0, 1.0])
    # 2*|1-4| + 1*|2-6| = 10
    assert distance([1.0, 2.0], [4.0, 6.0], m) == 10.0


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        distance([1.0, 2.0], [1.0, 2.0, 3.0], L2)


def test_metric_spec_rules():
    with pytest.raises(ValueError):
        MetricSpec(kind="L1", weighted=True)  # weights missing
    with pytest.raises(ValueError):
        MetricSpec(kind="L2", weighted=False, weights=np.ones(3))
    with pytest.raises(RangeError):
        MetricSpec(kind="L2", weighted=True, weights=[-1.0, 2.0])
    with pytest.raises(ValueError):
        MetricSpec.from_name("unweighted l2")  # case-sensitive


def test_check_domain_bounds_the_spread_and_the_coordinate_sums():
    pts = np.random.default_rng(8).normal(size=(60, 3))
    L2.check_domain(pts * 1e153)
    L2.check_domain(pts + 1e300)  # an offset adds nothing to the spread
    L1.check_domain(pts * 1e300)
    for metric, bad in [(L2, pts * 1e154), (L1, pts * 1e307)]:
        with pytest.raises(RangeError):
            metric.check_domain(bad)
    # each set is admissible alone, the two together are not
    L2.check_domain(pts + 1e154)
    with pytest.raises(RangeError):
        L2.check_domain(pts, pts + 1e154)
    # the oracles' terms w * diff^2 are NaN for a zero weight on an overflow
    wide = pts.copy()
    wide[5, 0] = 1e200
    with pytest.raises(RangeError):
        MetricSpec(kind="L2", weighted=True, weights=[0.0, 1.0, 1.0]).check_domain(wide)
    # no spread, but the coordinate sums of a mean overflow
    with pytest.raises(RangeError):
        L1.check_domain(np.full((4, 2), 1e308))
    with pytest.raises(DimensionMismatchError):
        MetricSpec(kind="L1", weighted=True, weights=[1.0, 1.0]).check_domain(pts)


def test_from_name_round_trip():
    for name in ("Unweighted L1", "Unweighted L2"):
        m = MetricSpec.from_name(name)
        assert (m.kind, m.weighted, m.weights) == (name[-2:], False, None)
    m = MetricSpec.from_name("Weighted L2", weights=[1.0, 0.5])
    assert (m.kind, m.weighted) == ("L2", True)
    assert np.array_equal(m.weights, [1.0, 0.5])


def test_rowwise_matches_scalar():
    r = np.random.default_rng(7)
    a = r.normal(size=(40, 6))
    b = r.normal(size=(40, 6))
    out = rowwise_distance(a, b, L2)
    for i in range(40):
        assert out[i] == distance(a[i], b[i], L2)


@pytest.mark.parametrize("d", [6, 9, 24])
@pytest.mark.parametrize("kind", ["L1", "L2"])
@pytest.mark.parametrize("weighted", [False, True])
def test_every_metric_rowwise_and_gathered_match_scalar(d, kind, weighted):
    # both go through difference_distance; from d = 8 numpy sums pairwise,
    # which a coordinate-by-coordinate sum would not match
    r = np.random.default_rng(7 + d)
    weights = r.uniform(0.2, 2.0, d) if weighted else None
    m = MetricSpec(kind=kind, weighted=weighted, weights=weights)
    a = r.normal(size=(40, d))
    b = r.normal(size=(40, d))
    out = rowwise_distance(a, b, m)
    ids = r.integers(0, 40, size=(40, 5))
    gathered = gathered_distance(a, b, ids, m, block_elems=7 * d)
    for i in range(40):
        assert out[i] == distance(a[i], b[i], m)
        for j in range(5):
            assert gathered[i, j] == distance(a[i], b[ids[i, j]], m)


_coords = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
    min_size=1,
    max_size=8,
)


@given(data=st.data(), kind=st.sampled_from(["L1", "L2"]), weighted=st.booleans())
@settings(max_examples=200, deadline=None)
def test_metric_axioms(data, kind, weighted):
    """Nonnegativity, symmetry, and the triangle inequality: everything the
    bound filtering relies on."""
    p = np.array(data.draw(_coords))
    q = np.array(data.draw(_coords.filter(lambda v: True)))
    r = np.array(data.draw(_coords))
    d = len(p)
    q = np.resize(q, d)
    r = np.resize(r, d)
    if weighted:
        w = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                    min_size=d,
                    max_size=d,
                )
            )
        )
        metric = MetricSpec(kind=kind, weighted=True, weights=w)
    else:
        metric = MetricSpec(kind=kind)
    dpq = distance(p, q, metric)
    dqp = distance(q, p, metric)
    dpr = distance(p, r, metric)
    drq = distance(r, q, metric)
    assert dpq >= 0.0
    assert dpq == dqp
    # Small float slack: the inequality holds exactly in reals.
    assert dpq <= dpr + drq + 1e-9 * max(1.0, dpq)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_zero_iff_equal_for_positive_weights(data):
    p = np.array(data.draw(_coords))
    metric = MetricSpec(kind="L2")
    assert distance(p, p, metric) == 0.0
    q = p.copy()
    q[0] += 1.0
    assert distance(p, q, metric) > 0.0
