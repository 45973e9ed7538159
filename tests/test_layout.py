import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from accd.counters import CounterSet
from accd.dataset import Dataset
from accd.gti import GroupModel, build_groups
from accd.layout import pack_intra_group, reorder_inter_group
from accd.metrics import MetricSpec
from accd.synth import gaussian_mixture

L2 = MetricSpec(kind="L2")


def _gm_from_membership(values, membership):
    n = values.shape[0]
    group_of = np.empty(n, dtype=np.int64)
    for g, m in enumerate(membership):
        group_of[m] = g
    return GroupModel(
        landmarks=np.zeros((len(membership), values.shape[1])),
        membership=[np.array(m, dtype=np.int64) for m in membership],
        group_of=group_of,
        radius=np.zeros(len(membership)),
        point_to_landmark=np.zeros(n),
        metric=L2,
    )


def _mask(lists, groups=13):
    mask = np.zeros((len(lists), groups), dtype=bool)
    for r, targets in enumerate(lists):
        mask[r, targets] = True
    return mask


def test_reorder_groups_identical_lists_adjacent():
    # four groups: 1 and 3 share a candidate list; 0 and 2 have near-miss
    # lists that differ in the first target
    mask = _mask([[1, 4, 6], [8, 10, 12], [2, 4, 6], [8, 10, 12]])
    order, starts = reorder_inter_group(mask)
    assert order.tolist() == [1, 3, 0, 2]
    # the identical pair is one run; the near-miss pair, though
    # consecutive, is never merged into one
    assert starts.tolist() == [0, 2, 3]


def test_reorder_identical_lists_is_stable_identity():
    order, starts = reorder_inter_group(_mask([[3, 5]] * 4))
    assert order.tolist() == [0, 1, 2, 3]
    assert starts.tolist() == [0]


def test_reorder_all_distinct_sorted_by_key():
    mask = _mask([[9], [1, 2], [1], [0]])
    order, starts = reorder_inter_group(mask)
    # the key is each row's bits packed little-endian into bytes, compared
    # first byte first
    key = [tuple(np.packbits(row, bitorder="little").tolist()) for row in mask]
    assert order.tolist() == sorted(range(4), key=lambda r: (key[r], r))
    assert starts.tolist() == [0, 1, 2, 3]


@st.composite
def _masks(draw):
    """(rows, groups) masks whose rows repeat a few drawn patterns."""
    groups = draw(st.integers(1, 130))
    patterns = draw(arrays(bool, (draw(st.integers(1, 4)), groups)))
    picks = draw(st.lists(st.integers(0, patterns.shape[0] - 1), min_size=1, max_size=40))
    return patterns[picks]


@given(mask=_masks())
@settings(max_examples=300, deadline=None)
def test_reorder_runs_are_the_equal_rows_in_ascending_order(mask):
    order, starts = reorder_inter_group(mask)
    rows = mask.shape[0]
    # the runs partition the rows
    assert sorted(order.tolist()) == list(range(rows))
    assert starts[0] == 0 and np.all(np.diff(starts) > 0) and starts[-1] < rows
    for start, end in zip(starts.tolist(), [*starts[1:].tolist(), rows]):
        run = order[start:end]
        assert np.all(np.diff(run) > 0)
        assert np.all(mask[run] == mask[run[0]])
    # neighbouring runs differ, so each distinct row is one run
    heads = mask[order[starts]]
    assert not np.any(np.all(heads[1:] == heads[:-1], axis=1))
    assert starts.size == np.unique(mask, axis=0).shape[0]


def test_pack_follows_group_point_mapping():
    values = np.arange(20).reshape(10, 2).astype(float)
    ds = Dataset.from_values(values)
    membership = [[3, 8, 9], [5, 6, 7], [1, 2, 4], [0]]
    gm = _gm_from_membership(values, membership)
    plan = pack_intra_group(ds, gm)
    assert plan.point_perm[:9].tolist() == [3, 8, 9, 5, 6, 7, 1, 2, 4]
    # contiguity: packed positions of one group form a dense range
    for g, members in enumerate(membership):
        lo, hi = plan.group_slices[g]
        assert hi - lo == len(members)
        assert sorted(plan.point_perm[lo:hi].tolist()) == sorted(members)


def test_single_group_roundtrip():
    r = np.random.default_rng(0)
    values = r.normal(size=(12, 3))
    ds = Dataset.from_values(values)
    gm = _gm_from_membership(values, [list(range(12))])
    plan = pack_intra_group(ds, gm)
    assert plan.point_perm[plan.inverse_perm].tolist() == list(range(12))


def test_apply_preserves_row_multiset():
    # the pipelines apply a layout by reading values[point_perm]
    pts = gaussian_mixture(60, 4, 5, seed=3)
    gm = build_groups(pts, 5, seed=4, metric=L2, counters=CounterSet())
    plan = pack_intra_group(pts, gm)
    packed = pts.values[plan.point_perm]
    assert np.array_equal(np.sort(packed, axis=0), np.sort(pts.values, axis=0))
    assert np.array_equal(plan.inverse_perm[plan.point_perm], np.arange(60))
