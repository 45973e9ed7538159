import numpy as np
import pytest

from accd.counters import CounterSet
from accd.dataset import Dataset
from accd.errors import SizeMismatchError
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


def test_group_order_must_be_permutation():
    values = np.zeros((4, 2))
    ds = Dataset.from_values(values)
    gm = _gm_from_membership(values, [[0, 1], [2, 3]])
    with pytest.raises(SizeMismatchError):
        pack_intra_group(ds, gm, group_order=np.array([0, 0]))
