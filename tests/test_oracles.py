import numpy as np
import pytest

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


def _loop_means(values, assign, k, prev):
    """Reference: each group's rows reduced in ascending member order."""
    out = prev.copy()
    for g in range(k):
        members = np.flatnonzero(assign == g)
        if members.size:
            out[g] = np.add.reduce(values[members], axis=0) / members.size
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 7, 24])
def test_group_means_equal_a_per_group_reduce_bitwise(d):
    # groups large enough for pairwise summation to differ from a running
    # sum, values far from the origin, signed zeros, and empty groups
    r = np.random.default_rng(40 + d)
    for case in range(30):
        n, k = int(r.integers(1, 400)), int(r.integers(1, 40))
        offset = [0.0, 1e3, 1e6][case % 3]
        values = r.normal(size=(n, d)) * 10.0 ** r.integers(-3, 4) + offset
        values[r.random(size=(n, d)) < 0.2] = -0.0
        if case % 5 == 0:
            values[:, 0] = -0.0  # a column of negative zeros only
        assign = r.integers(0, max(1, k - 2), size=n)  # the top groups stay empty
        prev = r.normal(size=(k, d))
        got = group_means(values, assign, k, prev)
        want = _loop_means(values, assign, k, prev)
        assert got.tobytes() == want.tobytes(), (d, case)
