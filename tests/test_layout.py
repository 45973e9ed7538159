import numpy as np
import pytest

from accd.counters import CounterSet
from accd.dataset import Dataset
from accd.errors import CapacityError, SizeMismatchError
from accd.gti import CandidateMatrix, GroupModel, build_groups
from accd.layout import pack_intra_group, reorder_inter_group
from accd.metrics import MetricSpec
from accd.synth import gaussian_mixture

L2 = MetricSpec(kind="L2")


def _cm(lists):
    return CandidateMatrix(targets=[np.array(l, dtype=np.int64) for l in lists])


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


def test_reorder_groups_identical_lists_adjacent():
    # four groups: 1 and 3 share a candidate list; 0 and 2 have near-miss
    # lists that differ in the first target
    cm = _cm([[1, 4, 6], [8, 10, 12], [2, 4, 6], [8, 10, 12]])
    order = reorder_inter_group(cm).tolist()
    assert order == [0, 2, 1, 3]
    pos = {g: i for i, g in enumerate(order)}
    # the identical pair ends up adjacent with equal keys ...
    assert abs(pos[1] - pos[3]) == 1
    assert cm.key(1) == cm.key(3)
    # ... while the near-miss pair is only coincidentally consecutive and
    # must never be merged into one run
    assert cm.key(0) != cm.key(2)


def test_reorder_identical_lists_is_stable_identity():
    cm = _cm([[3, 5]] * 4)
    assert reorder_inter_group(cm).tolist() == [0, 1, 2, 3]


def test_reorder_all_distinct_sorted_by_key():
    cm = _cm([[9], [1, 2], [1], [0]])
    got = reorder_inter_group(cm).tolist()
    want = sorted(range(4), key=lambda g: (tuple(cm.targets[g].tolist()), g))
    assert got == want


def test_pack_follows_group_point_mapping():
    values = np.arange(20).reshape(10, 2).astype(float)
    ds = Dataset.from_values(values)
    membership = [[3, 8, 9], [5, 6, 7], [1, 2, 4], [0]]
    gm = _gm_from_membership(values, membership)
    plan = pack_intra_group(ds, gm, n_banks=1)
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
    plan = pack_intra_group(ds, gm, n_banks=1)
    assert plan.point_perm[plan.inverse_perm].tolist() == list(range(12))


def test_four_equal_groups_two_banks_balanced():
    values = np.zeros((8, 2))
    ds = Dataset.from_values(values)
    gm = _gm_from_membership(values, [[0, 1], [2, 3], [4, 5], [6, 7]])
    plan = pack_intra_group(ds, gm, n_banks=2)
    loads = np.bincount(plan.bank_of_group, minlength=2)
    assert loads.tolist() == [2, 2]
    # bank boundaries never split a group
    for g in range(4):
        lo, hi = plan.group_slices[g]
        assert plan.bank_of_group[g] >= 0


def test_greedy_bank_balance_within_two_of_optimal():
    r = np.random.default_rng(42)
    for trial in range(20):
        sizes = r.integers(1, 40, size=int(r.integers(2, 12)))
        n = int(sizes.sum())
        values = np.zeros((n, 2))
        ds = Dataset.from_values(values)
        cuts = np.cumsum(sizes)[:-1]
        membership = np.split(np.arange(n), cuts)
        gm = _gm_from_membership(values, [m.tolist() for m in membership])
        n_banks = 4
        plan = pack_intra_group(ds, gm, n_banks=n_banks)
        loads = np.zeros(n_banks)
        for g, b in enumerate(plan.bank_of_group):
            loads[b] += sizes[g]
        opt_lower = max(n / n_banks, sizes.max())
        assert loads.max() <= 2 * opt_lower + 1e-9, (trial, sizes, loads)


def test_capacity_error_for_oversized_group():
    values = np.zeros((10, 2))
    ds = Dataset.from_values(values)
    gm = _gm_from_membership(values, [list(range(10))])
    with pytest.raises(CapacityError):
        pack_intra_group(ds, gm, n_banks=2, bank_capacity=5)


def test_apply_preserves_row_multiset():
    # the pipelines apply a layout by reading values[point_perm]
    pts = gaussian_mixture(60, 4, 5, seed=3)
    gm = build_groups(pts, 5, seed=4, metric=L2, counters=CounterSet())
    plan = pack_intra_group(pts, gm, n_banks=3)
    packed = pts.values[plan.point_perm]
    assert np.array_equal(np.sort(packed, axis=0), np.sort(pts.values, axis=0))
    assert np.array_equal(plan.inverse_perm[plan.point_perm], np.arange(60))


def test_group_order_must_be_permutation():
    values = np.zeros((4, 2))
    ds = Dataset.from_values(values)
    gm = _gm_from_membership(values, [[0, 1], [2, 3]])
    with pytest.raises(SizeMismatchError):
        pack_intra_group(ds, gm, n_banks=1, group_order=np.array([0, 0]))
