import numpy as np

from accd.oracles import group_means, group_members


def _assign(n, k, seed):
    # every group but the last gets members; the last stays empty
    return np.random.default_rng(seed).integers(0, k - 1, size=n)


def test_group_members_ascend_within_each_group():
    assign = _assign(500, 9, 1)
    members = group_members(assign, 9)
    assert len(members) == 9
    for g in range(9):
        assert members[g].dtype == np.int64
        assert np.array_equal(members[g], np.flatnonzero(assign == g))
    assert members[8].size == 0


def test_group_means_sum_members_in_ascending_order():
    # bitwise equal to summing each group's rows in ascending id order;
    # the empty group keeps its previous row
    r = np.random.default_rng(2)
    values = r.normal(size=(500, 4)) * 1e3
    assign = _assign(500, 9, 3)
    prev = r.normal(size=(9, 4))
    got = group_means(values, assign, 9, prev)
    for g in range(8):
        members = np.flatnonzero(assign == g)
        want = np.add.reduce(values[members], axis=0) / members.size
        assert got[g].tobytes() == want.tobytes()
    assert got[8].tobytes() == prev[8].tobytes()
