import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from accd.counters import CounterSet
from accd.dataset import Dataset
from accd.gti import GroupModel, build_groups
from accd.layout import pack_intra_group, reorder_inter_group
from accd.kernel import fast_rows
from accd.metrics import MetricSpec
from accd.pipelines import _Grouped
from accd.synth import gaussian_mixture

from conftest import pack_reversed

L2 = MetricSpec(kind="L2")


def _gm(values, group_of, z):
    return GroupModel(
        landmarks=np.zeros((z, values.shape[1])),
        group_of=np.asarray(group_of, dtype=np.int64),
        radius=np.zeros(z),
        metric=L2,
    )


def _gm_from_membership(values, membership):
    group_of = np.empty(values.shape[0], dtype=np.int64)
    for g, m in enumerate(membership):
        group_of[m] = g
    return _gm(values, group_of, len(membership))


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
    assert plan.point_perm.tolist() == list(range(12))
    assert plan.group_slices.tolist() == [[0, 12]]


def test_apply_preserves_row_multiset():
    # the pipelines apply a layout by reading values[point_perm]
    pts = gaussian_mixture(60, 4, 5, seed=3)
    gm = build_groups(pts, 5, seed=4, metric=L2, counters=CounterSet())
    plan = pack_intra_group(pts, gm)
    packed = pts.values[plan.point_perm]
    assert np.array_equal(np.sort(packed, axis=0), np.sort(pts.values, axis=0))
    assert np.array_equal(np.sort(plan.point_perm), np.arange(60))


@st.composite
def _groupings(draw):
    """(z, group_of): 1 to 130 groups over 1 to 200 points, so many of the
    groups are empty."""
    z = draw(st.integers(1, 130))
    n = draw(st.integers(1, 200))
    return z, draw(arrays(np.int64, n, elements=st.integers(0, z - 1)))


@given(grouping=_groupings(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_each_group_is_one_slice_and_targets_are_its_members(grouping, data):
    z, group_of = grouping
    values = np.random.default_rng(group_of.size).normal(size=(group_of.size, 3))
    ds, gm = Dataset.from_values(values), _gm(values, group_of, z)
    plan = pack_intra_group(ds, gm)
    members = [np.flatnonzero(group_of == g) for g in range(z)]
    assert plan.group_slices.shape == (z, 2)
    for g, (start, stop) in enumerate(plan.group_slices.tolist()):
        assert np.array_equal(plan.point_perm[start:stop], members[g])
    # an ascending subset of the non-empty groups: under id-order packing
    # adjacent groups are one slice and the others gathered; reversed
    # packing gathers every subset of two groups or more
    live = np.flatnonzero(gm.sizes).tolist()
    groups = np.array(sorted(data.draw(st.sets(st.sampled_from(live), min_size=1))))
    want = np.concatenate([members[g] for g in groups.tolist()])
    sizes = gm.sizes[groups]
    centre = values.mean(axis=0)
    rows = fast_rows(values, centre, L2)
    for layout in (plan, pack_reversed(ds, gm)):
        grouped = _Grouped.build(values, gm, layout, L2, centre)
        got, ids, got_rows, col_starts = grouped.targets(groups)
        assert got is groups and np.array_equal(ids, want)
        assert got_rows.tobytes() == rows[want].tobytes()
        assert np.array_equal(col_starts, np.cumsum(sizes) - sizes)
