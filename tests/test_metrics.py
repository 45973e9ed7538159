import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from accd import metrics
from accd.errors import DimensionMismatchError, RangeError
from accd.metrics import (
    METRIC_NAMES,
    MetricSpec,
    column_sum,
    coordinate_distance,
    difference_distance,
    distance,
    gathered_distance,
    rowwise_distance,
)

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


def _row_major_box(sets):
    """``check_domain``'s extent as it was first written: each set's
    ``min``/``max`` over axis 0, reduced row by row."""
    return (
        np.minimum.reduce([p.min(axis=0) for p in sets]),
        np.maximum.reduce([p.max(axis=0) for p in sets]),
    )


def _admits(metric, *sets) -> bool:
    try:
        metric.check_domain(*sets)
    except RangeError:
        return False
    return True


_domain_values = st.one_of(
    st.floats(width=64),  # NaN and ±inf included
    st.floats(min_value=-1e155, max_value=1e155),
    st.sampled_from([0.0, -0.0, 5e-324, 1e154, -1e154, 1.5e154, np.inf, -np.inf, np.nan]),
)


@given(data=st.data(), d=st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_check_domain_reduces_each_set_as_the_row_major_reference(data, d):
    # check_domain decides on the per-coordinate extent of all non-empty
    # sets and their total row count; min and max are exact in any order,
    # so the coordinate-major extent must be the row-major one (NaN where
    # a set has one; a zero's sign, which no decision sees, may differ)
    shapes = st.tuples(st.integers(0, 5), st.just(d))
    sets = data.draw(
        st.lists(arrays(np.float64, shapes, elements=_domain_values), min_size=1, max_size=3)
    )
    full = [p for p in sets if p.size]
    if full:
        for got, want in zip(metrics._box(full), _row_major_box(full)):
            np.testing.assert_array_equal(got, want)
    # n-body passes the transposes of contiguous (d, n) arrays, whose
    # columns need no copy; the decision must not depend on the layout
    columns = [np.asfortranarray(p) for p in sets]
    weighted = MetricSpec(kind="L2", weighted=True, weights=np.linspace(0.0, 2.0, d))
    for metric in (L1, L2, weighted):
        assert _admits(metric, *sets) == _admits(metric, *columns)


def test_column_sum_is_numpys_row_sum_bitwise():
    # numpy sums a contiguous row pairwise from 8 terms and halves it above
    # 128; column_sum must add the same terms in the same order
    rng = np.random.default_rng(3)
    for d in range(1, 301):
        for shape in [(d, 41), (d, 3, 5)]:
            x = rng.standard_normal(shape) * np.exp(rng.uniform(-40, 40, size=shape))
            for value, share in [(0.0, 0.1), (-0.0, 0.2), (4e-320, 0.05), (1e300, 0.05), (-1e300, 0.03)]:
                x[rng.random(shape) < share] = value
            x[:, 0] = -0.0  # numpy's sum starts from 0.0
            x[: d // 2, 1] = 4e-320
            want = np.add.reduce(np.stack(list(x), axis=-1), axis=-1)
            with np.errstate(over="ignore", invalid="ignore"):
                got = column_sum(x)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (
                f"d={d}, terms {shape[1:]}: column_sum no longer follows the order of "
                f"np.add.reduce in numpy {np.__version__}"
            )


@pytest.mark.parametrize("d", [1, 3, 7, 8, 9, 24, 130])
@pytest.mark.parametrize("name", list(METRIC_NAMES))
def test_coordinate_distance_is_difference_distance_bitwise(name, d):
    rng = np.random.default_rng(d)
    m = MetricSpec.from_name(name, rng.uniform(0.0, 2.0, d))
    diff = rng.normal(size=(300, d)) * np.exp(rng.uniform(-5, 5, size=(300, d)))
    diff[rng.random(diff.shape) < 0.1] = 0.0
    want = difference_distance(diff.copy(), m)
    got = coordinate_distance(np.ascontiguousarray(diff.T), m)
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), f"numpy {np.__version__}"


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
