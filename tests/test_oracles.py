import numpy as np
import pytest

from accd import oracles
from accd.dataset import NeighborLists, brute_rows, rowwise_lexsort
from accd.errors import RangeError
from accd.metrics import MetricSpec
from accd.oracles import group_means, group_members, knn_topk, radius_neighbors
from accd.synth import gaussian_mixture


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


_WEIGHTS = np.array([0.5, 2.0, 1.0, 0.25])


# case -> (source rows, target rows, k, metric); the points lie on the
# integer grid {0, 1, 2}^4, so distances tie everywhere, duplicates included
TOPK_CASES = {
    "k_boundary_ties": (300, 250, 10, MetricSpec(kind="L2")),
    "k_1": (300, 250, 1, MetricSpec(kind="L2")),
    "l1": (200, 150, 12, MetricSpec(kind="L1")),
    "k_n": (60, 60, 60, MetricSpec(kind="L2")),
    "pad_over_n": (60, 60, 55, MetricSpec(kind="L2")),  # k + 8 >= n
    "weighted_l1": (200, 150, 7, MetricSpec(kind="L1", weighted=True, weights=_WEIGHTS)),
    "weighted_l2": (200, 150, 7, MetricSpec(kind="L2", weighted=True, weights=_WEIGHTS)),
}


@pytest.mark.parametrize("case", list(TOPK_CASES))
def test_knn_topk_equals_a_full_sort(case):
    # every row is bitwise the first k entries of a full (distance, id)
    # sort of its brute-force row, ties at the k boundary included
    m, n, k, metric = TOPK_CASES[case]
    rng = np.random.default_rng(81)
    src = rng.integers(0, 3, size=(m, 4)).astype(float)
    trg = rng.integers(0, 3, size=(n, 4)).astype(float)
    ids, dists = knn_topk(src, trg, metric, k)

    full = brute_rows(src, trg, metric)
    order = rowwise_lexsort(full, np.broadcast_to(np.arange(n), full.shape))[:, :k]
    assert np.array_equal(ids, order)
    want = np.take_along_axis(full, order, axis=1)
    assert np.array_equal(dists.view(np.int64), want.view(np.int64))
    if k < n:
        tied = np.sort(full, axis=1)
        assert np.count_nonzero(tied[:, k - 1] == tied[:, k]) > m // 4


def _scanned_neighbors(points, metric, radius) -> list[np.ndarray]:
    """Per point, its row of the distance matrix scanned alone."""
    d = brute_rows(points, points, metric)
    lists = [np.flatnonzero(d[i] <= radius) for i in range(points.shape[0])]
    return [nbr[nbr != i] for i, nbr in enumerate(lists)]


# case -> (points, metric, radius)
RADIUS_CASES = {
    # the n-body sample's metric and radius, on blobs of its dimension
    "sample": lambda: (
        gaussian_mixture(500, 3, 6, seed=5, center_box=4.0).values, MetricSpec(kind="L2"), 1.5
    ),
    # {0, 1, 2}^3 holds 27 points, so 300 draws repeat them: duplicates
    # are neighbors at distance 0, and 1 is an exact grid distance
    "grid_duplicates": lambda: (
        np.random.default_rng(82).integers(0, 3, size=(300, 3)).astype(float),
        MetricSpec(kind="L2"),
        1.0,
    ),
    "weighted_l1": lambda: (
        gaussian_mixture(400, 4, 5, seed=6, center_box=3.0).values,
        MetricSpec(kind="L1", weighted=True, weights=_WEIGHTS),
        1.2,
    ),
}


@pytest.mark.parametrize("block_rows", [None, 7], ids=["one_block", "blocks_of_7"])
@pytest.mark.parametrize("case", list(RADIUS_CASES))
def test_radius_neighbors_is_the_csr_of_a_per_point_scan(monkeypatch, case, block_rows):
    points, metric, radius = RADIUS_CASES[case]()
    if block_rows is not None:
        monkeypatch.setattr(oracles, "_ROW_BLOCK_ELEMS", block_rows * points.size)
    got = radius_neighbors(points, metric, radius)
    want = _scanned_neighbors(points, metric, radius)
    assert isinstance(got, NeighborLists) and got.ids.dtype == np.int32
    assert np.array_equal(got.offsets, np.cumsum([0] + [w.size for w in want]))
    assert np.array_equal(got.ids, np.concatenate(want))
    assert len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))
    assert got.ids.size > points.shape[0]
    if case == "grid_duplicates":
        assert any(np.any(np.all(points[lst] == points[i], axis=1)) for i, lst in enumerate(got))


def test_radius_below_every_pair_distance_gives_empty_lists():
    grid = np.random.default_rng(83).integers(0, 3, size=(60, 3)).astype(float)
    points = np.unique(grid, axis=0) * 10.0  # pairs 10 or more apart
    got = radius_neighbors(points, MetricSpec(kind="L2"), 9.99)
    assert np.array_equal(got.offsets, np.zeros(points.shape[0] + 1))
    assert got.ids.size == 0 and got.ids.dtype == np.int32


@pytest.mark.parametrize("oracle", ["knn_topk", "radius_neighbors", "nearest_assign"])
def test_oracles_reject_inputs_whose_l2_distances_overflow(oracle):
    points = np.random.default_rng(84).normal(size=(60, 3))
    points[17, 1] = 1e200
    l2 = MetricSpec(kind="L2")
    with pytest.raises(RangeError):
        if oracle == "knn_topk":
            knn_topk(points, points, l2, 5)
        elif oracle == "radius_neighbors":
            radius_neighbors(points, l2, 1.0)
        else:
            oracles.nearest_assign(points, points[:4], l2)
