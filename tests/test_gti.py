import numpy as np
import pytest

from accd import gti, pipelines
from accd.counters import CounterSet
from accd.dataset import Dataset, brute_rows
from accd.errors import InvalidQueryError, RangeError
from accd.gti import (
    GroupModel,
    build_groups,
    filter_iterative,
    filter_oneshot,
    group_max,
    init_oneshot_state,
    lower_bound,
    measured_saving,
    two_landmark_bounds,
)
from accd.kernel import fast_rows
from accd.metrics import MetricSpec
from accd.oracles import nearest_assign
from accd.synth import gaussian_mixture

L2 = MetricSpec(kind="L2")


# -- grouping ---------------------------------------------------------------


def test_one_group_radius_is_max_distance():
    r = np.random.default_rng(0)
    ds = Dataset.from_values(r.normal(size=(50, 3)))
    gm = build_groups(ds, 1, seed=1, metric=L2)
    assert gm.z == 1
    assert gm.sizes.tolist() == [50]
    assert gm.radius[0] == brute_rows(ds.values, gm.landmarks, L2).max()


def test_each_point_its_own_group():
    r = np.random.default_rng(1)
    ds = Dataset.from_values(r.normal(size=(20, 4)))
    gm = build_groups(ds, 20, seed=2, metric=L2)
    assert np.all(gm.sizes <= 1)
    assert np.all(gm.radius == 0.0)


def test_separated_blobs_recover_labels():
    r = np.random.default_rng(3)
    a = r.normal(size=(60, 2)) + [0.0, 0.0]
    b = r.normal(size=(60, 2)) + [100.0, 100.0]
    ds = Dataset.from_values(np.vstack([a, b]))
    gm = build_groups(ds, 2, seed=5, metric=L2)
    labels = gm.group_of
    assert len(set(labels[:60])) == 1
    assert len(set(labels[60:])) == 1
    assert labels[0] != labels[60]
    # brute-force nearest-landmark check
    d = brute_rows(ds.values, gm.landmarks, L2)
    assert np.array_equal(labels, np.argmin(d, axis=1))


def test_membership_partitions_points():
    r = np.random.default_rng(4)
    ds = Dataset.from_values(r.normal(size=(75, 5)))
    gm = build_groups(ds, 7, seed=6, metric=L2)
    assert gm.group_of.shape == (75,) and gm.group_of.min() >= 0 and gm.group_of.max() < 7
    assert np.array_equal(gm.sizes, [np.count_nonzero(gm.group_of == g) for g in range(7)])
    # each radius is the direct distance to the group's farthest member
    for g in range(7):
        members = np.flatnonzero(gm.group_of == g)
        d = brute_rows(ds.values[members], gm.landmarks[g : g + 1], L2)
        assert gm.radius[g] == (d.max() if members.size else 0.0)


def _distinct_rows_in_id_order(all_values, rows):
    """Whether ``rows`` are distinct rows of ``all_values`` taken in
    ascending id order (matching each to its first fit after the previous
    one, so duplicate points match too)."""
    nxt = 0
    for row in rows:
        hits = np.flatnonzero((all_values[nxt:] == row).all(axis=1))
        if not hits.size:
            return False
        nxt += int(hits[0]) + 1
    return True


def _brute_force_groups(monkeypatch, ds, z, seed, metric):
    """The same construction with every assignment made by the oracle's
    direct-differencing brute force. Every Lloyd round must get the same
    min(n, 16*z) rows of the set, in ascending id order, and the final
    pass all n, all centred on the whole set's mean."""
    passes = []

    def oracle(values, centre, fast, landmarks, mt, counters, with_dist=False):
        assert centre.tobytes() == ds.values.mean(axis=0).tobytes()
        passes.append((with_dist, values.copy()))
        return nearest_assign(values, landmarks, mt)

    with monkeypatch.context() as m:
        m.setattr(gti, "_assign_nearest", oracle)
        gm = build_groups(ds, z, seed=seed, metric=metric)
    assert [w for w, _ in passes] == [False] * gti._LLOYD_ITERATIONS + [True]
    s = min(ds.n, gti._LLOYD_SAMPLE_PER_GROUP * z)
    sample = passes[0][1]
    assert sample.shape == (s, ds.d) and _distinct_rows_in_id_order(ds.values, sample)
    assert all(np.array_equal(v, sample) for _, v in passes[: gti._LLOYD_ITERATIONS])
    assert np.array_equal(passes[-1][1], ds.values)
    return gm


def _assert_same_groups(got, want):
    for field in ("landmarks", "group_of", "radius", "sizes"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field


_WEIGHTS = np.array([0.5, 2.0, 1.0, 3.0, 0.25, 1.5])
_METRICS = {
    "L1": MetricSpec(kind="L1"),
    "L2": L2,
    "weighted L1": MetricSpec(kind="L1", weighted=True, weights=_WEIGHTS),
    "weighted L2": MetricSpec(kind="L2", weighted=True, weights=_WEIGHTS),
}


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6, 1e7])
@pytest.mark.parametrize("metric", list(_METRICS), ids=list(_METRICS))
def test_grouping_equals_brute_force_assignment(monkeypatch, metric, offset):
    # blobs far from the origin, with duplicated points: the matmul form
    # cancels badly there unless the points are centred, and the result
    # must equal brute force at every offset; 240 > 16 * 11 points, so the
    # Lloyd rounds run on a sample
    pts = gaussian_mixture(240, 6, 5, seed=7, center_box=5.0).values
    pts[200:] = pts[:40]
    ds = Dataset.from_values(pts + offset)
    got = build_groups(ds, 11, seed=3, metric=_METRICS[metric])
    _assert_same_groups(got, _brute_force_groups(monkeypatch, ds, 11, 3, _METRICS[metric]))


@pytest.mark.parametrize("metric", list(_METRICS), ids=list(_METRICS))
def test_grouping_ties_go_to_the_lower_landmark(monkeypatch, metric):
    # an integer grid with many duplicates: exact distance ties between
    # landmarks are everywhere, and each must go to the lower landmark id
    r = np.random.default_rng(21)
    pts = r.integers(0, 3, size=(300, 6)).astype(np.float64)
    ds = Dataset.from_values(pts)
    for z, seed in ((9, 1), (40, 2)):
        got = build_groups(ds, z, seed=seed, metric=_METRICS[metric])
        _assert_same_groups(got, _brute_force_groups(monkeypatch, ds, z, seed, _METRICS[metric]))


@pytest.mark.parametrize("offset", [0.0, 1e7])
@pytest.mark.parametrize("metric", list(_METRICS), ids=list(_METRICS))
@pytest.mark.parametrize("data", ["blobs", "grid"])
def test_assign_nearest_equals_oracle_bitwise(monkeypatch, data, metric, offset):
    # row blocks of 7 points, the last one ragged (300 = 42 * 7 + 6); the
    # landmarks repeat points and each other, so rows have several
    # candidates, and on the integer grid {0, 1, 2}^6 exact ties
    if data == "blobs":
        values = gaussian_mixture(300, 6, 5, seed=7, center_box=5.0).values
    else:
        values = np.random.default_rng(21).integers(0, 3, size=(300, 6)).astype(np.float64)
    values = values + offset
    landmarks = np.vstack([values[:12], values[3:9], values[40:52]])
    monkeypatch.setattr(gti._Nearest, "TILE_CELLS", 7 * landmarks.shape[0])
    mt = _METRICS[metric]
    centre = values.mean(axis=0)
    fast = (fast_rows(values, centre, mt), slice(0, values.shape[0]))
    want_assign, want_dist = nearest_assign(values, landmarks, mt)
    assign, dist = gti._assign_nearest(values, centre, fast, landmarks, mt, None)
    assert dist is None
    assert assign.dtype == want_assign.dtype and assign.tobytes() == want_assign.tobytes()
    assign, dist = gti._assign_nearest(values, centre, fast, landmarks, mt, None, with_dist=True)
    assert assign.dtype == want_assign.dtype and assign.tobytes() == want_assign.tobytes()
    assert dist.dtype == want_dist.dtype and dist.tobytes() == want_dist.tobytes()
    # a sample of every third point, by its positions in the set's rows:
    # its 100 rows are gathered in blocks of 7, the last one ragged
    at = np.arange(0, values.shape[0], 3)
    assign, _ = gti._assign_nearest(values[at], centre, (fast[0], at), landmarks, mt, None)
    assert assign.tobytes() == want_assign[at].tobytes()


def _spy_grouping(monkeypatch, ds, z, seed):
    """build_groups with, per assignment pass, the rows it recomputes by
    direct differencing and the candidate counts of its open rows (rows
    with more than one landmark within 2*err of their fast minimum)."""
    passes = []
    real_assign, real_rowwise, real_tile = (
        gti._assign_nearest,
        gti.rowwise_distance,
        pipelines.tile_distances,
    )

    def assign(*args, **kwargs):
        passes.append({"recomputed": 0, "open_candidates": 0, "open_rows": 0})
        return real_assign(*args, **kwargs)

    def rowwise(a, b, metric):
        passes[-1]["recomputed"] += a.shape[0]
        return real_rowwise(a, b, metric)

    def tile(*args, **kwargs):
        values, err = real_tile(*args, **kwargs)
        counts = np.count_nonzero(
            values <= values.min(axis=1)[:, None] + 2 * err[:, None], axis=1
        )
        passes[-1]["open_candidates"] += int(counts[counts > 1].sum())
        passes[-1]["open_rows"] += int(np.count_nonzero(counts > 1))
        return values, err

    with monkeypatch.context() as m:
        m.setattr(gti, "_assign_nearest", assign)
        m.setattr(gti, "rowwise_distance", rowwise)
        m.setattr(pipelines, "tile_distances", tile)  # the tile engine's
        build_groups(ds, z, seed=seed, metric=L2)
    assert len(passes) == gti._LLOYD_ITERATIONS + 1
    return passes


def test_grouping_recomputes_no_decided_row(monkeypatch):
    # well-separated blobs: every point has one landmark within the error
    # bound, so the Lloyd rounds recompute nothing and the final pass only
    # each point's distance to its own landmark
    r = np.random.default_rng(3)
    centres = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
    ds = Dataset.from_values(np.vstack([c + r.normal(size=(50, 2)) for c in centres]))
    passes = _spy_grouping(monkeypatch, ds, 3, 0)
    assert [p["recomputed"] for p in passes] == [0] * gti._LLOYD_ITERATIONS + [150]


def test_grouping_recomputes_only_open_rows(monkeypatch):
    # 300 points on the 16 nodes of {0, 1, 2, 3}^2 and 30 landmarks: nodes
    # sampled twice keep duplicate landmarks through every Lloyd round, so
    # each pass has open rows, and only their candidates are recomputed
    # (plus, in the final pass, every point's winner)
    pts = np.random.default_rng(21).integers(0, 4, size=(300, 2)).astype(np.float64)
    passes = _spy_grouping(monkeypatch, Dataset.from_values(pts), 30, 1)
    assert all(p["open_rows"] for p in passes)
    assert [p["recomputed"] for p in passes] == [p["open_candidates"] for p in passes[:-1]] + [
        passes[-1]["open_candidates"] + 300
    ]


def test_grouping_distances_count_six_passes():
    # five Lloyd rounds plus the final assignment, n*z pairs each; above
    # 16*z = 112 points the rounds take s = 112 pairs per landmark
    for n, want in ((90, 6 * 90 * 7), (500, 5 * 112 * 7 + 500 * 7)):
        c = CounterSet()
        build_groups(gaussian_mixture(n, 3, 3, seed=2), 7, seed=1, metric=L2, counters=c)
        assert c.grouping_distances == want
        assert c.bound_computations == n


@pytest.mark.parametrize("n, z, rows", [(160, 10, 160), (161, 10, 160)])
def test_lloyd_rounds_sample_only_above_16_points_per_group(monkeypatch, n, z, rows):
    # n <= 16*z hands every round the set's own values, so small sets
    # group as they did before sampling; one point more and they sample
    ds = gaussian_mixture(n, 3, 3, seed=4)
    seen = []
    real = gti._assign_nearest

    def spying(values, *args, **kwargs):
        seen.append(values)
        return real(values, *args, **kwargs)

    monkeypatch.setattr(gti, "_assign_nearest", spying)
    build_groups(ds, z, seed=2, metric=L2)
    assert [v.shape[0] for v in seen] == [rows] * gti._LLOYD_ITERATIONS + [n]
    assert (rows == n) == all(v is ds.values for v in seen)
    assert seen[-1] is ds.values


def test_a_landmark_with_no_sample_member_keeps_its_row_and_may_end_empty(monkeypatch):
    # 300 points on the 9 nodes of {0, 1, 2}^2 and 12 landmarks, so some
    # duplicate another: ties go to the lower id, the higher draws no
    # sample member in any round, keeps its row and ends with no member
    pts = np.random.default_rng(21).integers(0, 3, size=(300, 2)).astype(np.float64)
    ds = Dataset.from_values(pts)
    counts, drawn = [], []
    real = gti._assign_nearest

    def counting(values, centre, fast, landmarks, *args, **kwargs):
        drawn.append(landmarks.copy())
        assign, dist = real(values, centre, fast, landmarks, *args, **kwargs)
        counts.append((values.shape[0], np.bincount(assign, minlength=landmarks.shape[0])))
        return assign, dist

    with monkeypatch.context() as m:
        m.setattr(gti, "_assign_nearest", counting)
        got = build_groups(ds, 12, seed=0, metric=L2)
    assert [r for r, _ in counts] == [192] * gti._LLOYD_ITERATIONS + [300]
    never = np.logical_and.reduce([c == 0 for _, c in counts])
    assert never.any()
    for g in np.flatnonzero(never):
        assert np.array_equal(got.landmarks[g], drawn[0][g])
        assert got.sizes[g] == 0 and got.radius[g] == 0.0
    _assert_same_groups(got, _brute_force_groups(monkeypatch, ds, 12, 0, L2))


def test_group_count_out_of_range():
    ds = Dataset.from_values(np.zeros((3, 2)))
    with pytest.raises(RangeError):
        build_groups(ds, 4, seed=0, metric=L2)


def test_grouping_deterministic():
    # 400 > 16 * 5 points sample, 40 do not
    r = np.random.default_rng(9)
    for n in (40, 400):
        ds = Dataset.from_values(r.normal(size=(n, 3)))
        a = build_groups(ds, 5, seed=11, metric=L2)
        _assert_same_groups(build_groups(ds, 5, seed=11, metric=L2), a)


# -- bound algebra ----------------------------------------------------------


def test_two_landmark_hand_values():
    assert two_landmark_bounds(10.0, 2.0, 3.0, 0.0) == (5.0, 15.0)
    assert two_landmark_bounds(7.0, 0.0, 0.0, 0.0) == (7.0, 7.0)
    assert two_landmark_bounds(1.0, 5.0, 5.0, 0.0) == (0.0, 11.0)  # floored at zero
    # the slack widens both sides, relative to every term
    s = 1e-3
    assert two_landmark_bounds(10.0, 2.0, 3.0, s) == (10 * (1 - s) - 5 * (1 + s), 15 * (1 + s))


def test_two_landmark_bounds_are_bitwise_symmetric_in_the_offsets():
    # a self-set run decides both orientations of a group pair from one
    rng = np.random.default_rng(5)
    d_ref = rng.uniform(0.0, 40.0, size=(50, 50))
    d_ref = np.minimum(d_ref, d_ref.T)
    radius = rng.uniform(0.0, 3.0, size=50)
    lb, ub = two_landmark_bounds(d_ref, radius[:, None], radius[None, :], 1e-15)
    assert np.array_equal(lb, lb.T) and np.array_equal(ub, ub.T)


def _one_group(landmark, radius):
    return GroupModel(
        landmarks=np.array([landmark], dtype=float),
        group_of=np.array([0]),
        radius=np.array([radius]),
        metric=L2,
    )


def _group_bounds(src: GroupModel, trg: GroupModel):
    """The group-pair bounds (lb, ub) whose lb ``init_oneshot_state`` keeps."""
    pair = brute_rows(src.landmarks, trg.landmarks, src.metric)
    return two_landmark_bounds(pair, src.radius[:, None], trg.radius[None, :], src.slack)


def test_group_bounds_hand_values():
    # landmarks 10 apart, radii 2 and 3 (and 0 and 0)
    # (widened by the bound slack, a few 1e-15 relative)
    a, b = _one_group([0.0, 0.0], 2.0), _one_group([6.0, 8.0], 3.0)
    lb, ub = _group_bounds(a, b)
    assert np.array_equal(init_oneshot_state(a, b), lb)
    assert lb[0, 0] < 5.0 < 15.0 < ub[0, 0]
    assert (lb[0, 0], ub[0, 0]) == (pytest.approx(5.0, rel=1e-13), pytest.approx(15.0, rel=1e-13))
    lb, ub = _group_bounds(_one_group([0.0, 0.0], 0.0), _one_group([6.0, 8.0], 0.0))
    assert lb[0, 0] < 10.0 < ub[0, 0]
    assert (lb[0, 0], ub[0, 0]) == (pytest.approx(10.0, rel=1e-13), pytest.approx(10.0, rel=1e-13))


def test_group_bounds_bracket_true_extremes():
    r = np.random.default_rng(17)
    a = r.normal(size=(30, 4)) + 5
    b = r.normal(size=(25, 4)) - 5
    ds_a, ds_b = Dataset.from_values(a), Dataset.from_values(b)
    gm_a = build_groups(ds_a, 1, seed=0, metric=L2)
    gm_b = build_groups(ds_b, 1, seed=0, metric=L2)
    d_ref = brute_rows(gm_a.landmarks, gm_b.landmarks, L2)[0, 0]
    lb, ub = two_landmark_bounds(d_ref, gm_a.radius[0], gm_b.radius[0], gm_a.slack)
    pair = brute_rows(a, b, L2)
    assert lb <= pair.min()
    assert pair.max() <= ub


def test_trace_bounds_hand_values():
    # one point (group 0, which does not move) and its best target, point
    # 1, which shares group 1 with point 2: the group pair's lb decays by
    # the two groups' largest drifts, group 0's threshold grows by its
    # target's drift; group 1 keeps everything
    gm = GroupModel(
        landmarks=np.zeros((2, 2)),
        group_of=np.array([0, 1, 1]),
        radius=np.zeros(2),
        metric=L2,
    )

    def decay(prev_lb, prev_best, drifts):
        lb = np.array([[0.0, prev_lb], [prev_lb, 0.0]])
        thr = np.array([prev_best + drifts[0], np.inf])
        c = CounterSet()
        keep = filter_iterative(gm, lb, thr, np.array([0.0, max(drifts)]), c)
        assert np.flatnonzero(keep[1]).tolist() == [0, 1]
        return float(lb[0, 1]), np.flatnonzero(keep[0]).tolist(), c.pruned_pairs

    def near(x):  # the decayed lb is widened by the bound slack
        return pytest.approx(x, rel=1e-13)

    assert decay(10.0, 5.0, [0.0, 0.0]) == (near(10.0), [0], 2)
    assert decay(10.0, 4.0, [1.0, 3.0]) == (near(7.0), [0], 2)
    assert decay(10.0, 6.0, [1.0, 3.0]) == (near(7.0), [0, 1], 0)
    assert decay(1.0, 6.0, [1.0, 3.0]) == (0.0, [0, 1], 0)  # floored at zero
    assert decay(10.0, 4.0, [1.0, 3.0])[0] < 7.0


def test_bound_ops_vectorized():
    lb, ub = two_landmark_bounds(np.array([10.0, 1.0]), np.array([2.0, 5.0]), 3.0, 0.0)
    assert lb.tolist() == [5.0, 0.0]
    assert ub.tolist() == [15.0, 9.0]


# -- one-shot filtering -----------------------------------------------------


def _grouped_pair(n_src=80, n_trg=90, z_src=4, z_trg=5, seed=0, spread=1.0, box=50.0):
    src = gaussian_mixture(n_src, 3, z_src, seed=seed, center_box=box, spread=spread)
    trg = gaussian_mixture(n_trg, 3, z_trg, seed=seed + 1, center_box=box, spread=spread)
    c = CounterSet()
    gm_s = build_groups(src, z_src, seed=seed + 2, metric=L2, counters=c)
    gm_t = build_groups(trg, z_trg, seed=seed + 3, metric=L2, counters=c)
    return src, trg, gm_s, gm_t, _group_bounds(gm_s, gm_t), c


def test_single_groups_cannot_prune():
    src, trg, gm_s, gm_t, (lb, ub), c = _grouped_pair(z_src=1, z_trg=1)
    keep = filter_oneshot(lb, ub, 3, gm_t.sizes, c)
    assert np.flatnonzero(keep[0]).tolist() == [0]


def test_bound_computation_budget_exact():
    m, n, zq, zt = 1000, 2000, 10, 20
    src = gaussian_mixture(m, 4, 8, seed=0)
    trg = gaussian_mixture(n, 4, 8, seed=1)
    c = CounterSet()
    gm_s = build_groups(src, zq, seed=2, metric=L2, counters=c)
    gm_t = build_groups(trg, zt, seed=3, metric=L2, counters=c)
    init_oneshot_state(gm_s, gm_t, c)
    assert c.bound_computations == m + n + zq * zt == 3200


def _radius_filter(gm_s, gm_t, lb, radius, c):
    """The radius cut of the group-pair lower bounds."""
    return gti._cut(lb, np.full(gm_s.z, radius), gm_s.sizes, gm_t.sizes, c)


def test_radius_filter_keeps_only_near_blobs():
    r = np.random.default_rng(2)
    src_pts = np.vstack([r.normal(size=(40, 2)), r.normal(size=(40, 2)) + 200.0])
    trg_pts = np.vstack([r.normal(size=(40, 2)) + 3.0, r.normal(size=(40, 2)) + 203.0])
    src, trg = Dataset.from_values(src_pts), Dataset.from_values(trg_pts)
    c = CounterSet()
    gm_s = build_groups(src, 2, seed=1, metric=L2, counters=c)
    gm_t = build_groups(trg, 2, seed=1, metric=L2, counters=c)
    lb = init_oneshot_state(gm_s, gm_t, c)
    radius = 20.0
    keep = _radius_filter(gm_s, gm_t, lb, radius, c)
    # every source group keeps exactly its nearby target group
    pair = brute_rows(src_pts, trg_pts, L2)
    for g in range(2):
        members = np.flatnonzero(gm_s.group_of == g)
        reachable = set()
        for t in range(2):
            cols = np.flatnonzero(gm_t.group_of == t)
            if (pair[np.ix_(members, cols)] <= radius).any():
                reachable.add(t)
        assert reachable <= set(np.flatnonzero(keep[g]).tolist())
        assert np.flatnonzero(keep[g]).size == 1


def test_topk_filter_never_prunes_true_members():
    src, trg, gm_s, gm_t, (lb, ub), c = _grouped_pair(seed=7)
    k = 5
    keep = filter_oneshot(lb, ub, k, gm_t.sizes, c)
    pair = brute_rows(src.values, trg.values, L2)
    for i in range(src.n):
        g = gm_s.group_of[i]
        kept = set(np.flatnonzero(keep[g]).tolist())
        order = np.lexsort((np.arange(trg.n), pair[i]))[:k]
        for j in order:
            assert gm_t.group_of[j] in kept, (i, j)


def test_topk_monotone_in_k():
    src, trg, gm_s, gm_t, (lb, ub), c = _grouped_pair(seed=8)
    prev = None
    for k in (1, 3, 9, 27):
        sizes = filter_oneshot(lb, ub, k, gm_t.sizes, c).sum(axis=1).tolist()
        if prev is not None:
            assert all(a >= b for a, b in zip(sizes, prev))
        prev = sizes


def test_radius_monotone_in_radius():
    src, trg, gm_s, gm_t, (lb, ub), c = _grouped_pair(seed=9)
    prev = None
    for radius in (0.5, 2.0, 8.0, 32.0):
        sizes = _radius_filter(gm_s, gm_t, lb, radius, c).sum(axis=1).tolist()
        if prev is not None:
            assert all(a >= b for a, b in zip(sizes, prev))
        prev = sizes


def test_oneshot_invalid_query():
    # a negative radius is rejected by the self-set pipeline (test_pipelines)
    src, trg, gm_s, gm_t, (lb, ub), c = _grouped_pair()
    with pytest.raises(InvalidQueryError):
        filter_oneshot(lb, ub, 10_000, gm_t.sizes, c)
    with pytest.raises(InvalidQueryError):
        filter_oneshot(lb, ub, 0, gm_t.sizes, c)


def test_candidate_regularity_is_structural():
    # all points of a source group share the group's candidate list by
    # construction: the mask is indexed by group, not by point
    src, trg, gm_s, gm_t, (lb, ub), c = _grouped_pair(seed=10)
    keep = filter_oneshot(lb, ub, 4, gm_t.sizes, c)
    assert keep.shape == (gm_s.z, gm_t.z) and keep.dtype == bool


def _loop_cut(lb, thr, src_sizes, trg_sizes):
    """Per-source-group reference for the vectorised cut."""
    targets, pruned = [], 0
    for a in range(lb.shape[0]):
        keep = np.flatnonzero(lb[a] <= thr[a])
        targets.append(keep)
        dropped = np.setdiff1d(np.arange(lb.shape[1]), keep, assume_unique=True)
        pruned += int(src_sizes[a] * trg_sizes[dropped].sum())
    return targets, pruned


@pytest.mark.parametrize("seed", range(8))
def test_vectorised_cut_matches_per_group_loop(seed):
    r = np.random.default_rng(seed)
    z_src, z_trg = r.integers(1, 12, size=2)
    src, trg, gm_s, gm_t, (lb, ub), _ = _grouped_pair(
        z_src=int(z_src), z_trg=int(z_trg), seed=seed, spread=float(r.uniform(0.5, 8.0))
    )
    src_sizes, trg_sizes = gm_s.sizes, gm_t.sizes
    for k in (1, 7, int(trg_sizes.sum())):
        c = CounterSet()
        keep = filter_oneshot(lb, ub, k, gm_t.sizes, c)
        thr = np.empty(gm_s.z)
        for a in range(gm_s.z):
            order = np.lexsort((np.arange(gm_t.z), ub[a]))
            cut = int(np.searchsorted(np.cumsum(trg_sizes[order]), k))
            thr[a] = ub[a, order[cut]]
        # the top-K cut's rows are one source point each
        targets, pruned = _loop_cut(lb, thr, np.ones(gm_s.z, dtype=np.int64), trg_sizes)
        assert [np.flatnonzero(row).tolist() for row in keep] == [t.tolist() for t in targets]
        assert c.pruned_pairs == pruned
    for radius in (0.0, 5.0, 40.0, 200.0):
        c = CounterSet()
        keep = _radius_filter(gm_s, gm_t, lb, radius, c)
        thr = np.full(gm_s.z, radius)
        targets, pruned = _loop_cut(lb, thr, src_sizes, trg_sizes)
        assert [np.flatnonzero(row).tolist() for row in keep] == [t.tolist() for t in targets]
        assert c.pruned_pairs == pruned


# -- iterative filtering ----------------------------------------------------


def test_zero_drift_radius_candidates_stable():
    # zero drift only widens the bounds by the slack, and the candidates
    # are exactly the group pairs whose lb reaches the radius
    pts = gaussian_mixture(60, 3, 4, seed=4)
    c = CounterSet()
    gm = build_groups(pts, 4, seed=4, metric=L2, counters=c)
    lb0 = init_oneshot_state(gm, gm, c)
    lb = lb0.copy()
    keep = filter_iterative(gm, lb, np.full(4, 5.0), np.zeros(4), c)
    assert np.array_equal(lb, lower_bound(lb0, 0.0, gm.slack))
    for a in range(4):
        assert np.array_equal(np.flatnonzero(keep[a]), np.flatnonzero(lb[a] <= 5.0))


def test_nearest_mode_prunes_soundly():
    # synthetic step: drifted lower bound beats the weakest upper bound
    # only when no member of the group can host the new nearest target
    pts = gaussian_mixture(120, 3, 3, seed=6, center_box=40.0)
    c = CounterSet()
    gm = build_groups(pts, 6, seed=6, metric=L2, counters=c)
    k = 9
    r = np.random.default_rng(8)
    centers = pts.values[r.choice(120, size=k, replace=False)].copy()
    pair = brute_rows(pts.values, centers, L2)
    best = np.argmin(pair, axis=1)
    best_d = pair[np.arange(120), best]
    trg_group_of = np.arange(k) % 3
    trg = GroupModel(
        landmarks=np.zeros((3, 3)),
        group_of=trg_group_of,
        radius=np.zeros(3),
        metric=L2,
    )
    lb = np.full((6, 3), np.inf)
    for g in range(6):
        for t in range(3):
            lb[g, t] = pair[np.ix_(gm.group_of == g, trg_group_of == t)].min()
    drift = np.abs(r.normal(size=k)) * 0.1
    moved = centers + r.normal(size=centers.shape) * 0.0
    weakest = group_max(best_d + drift[best], gm.group_of, 6)
    trg_drift = group_max(drift, trg_group_of, 3)
    lb = lower_bound(lb, trg_drift[None, :], gm.slack)  # only the targets drift
    keep = gti._cut(lb, weakest, gm.sizes, trg.sizes, c)
    # unmoved targets: pruned groups really contain no nearest target
    new_pair = brute_rows(pts.values, moved, L2)
    new_best = np.argmin(new_pair, axis=1)
    for i in range(120):
        g = gm.group_of[i]
        assert trg_group_of[new_best[i]] in set(np.flatnonzero(keep[g]).tolist())


def test_measured_saving_bounds():
    assert measured_saving(100, 10, 10) == 0.0
    assert measured_saving(0, 10, 10) == 1.0
    with pytest.raises(RangeError):
        measured_saving(0, 0, 5)
