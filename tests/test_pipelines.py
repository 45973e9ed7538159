"""The sample programs end to end through ``run_plan``, checked against the
shadow oracle, plus the run invariants: every point pair is accounted for
on every iteration, and neither the layout nor the thread count changes a
result. The tile engine is also driven directly, with a recording reducer."""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from accd.counters import CounterSet
from accd.dataset import Dataset, TopKResult, pairwise_brute, rowwise_lexsort
from accd.ddsl import lower, parse, validate
from accd.ddsl.lowering import SelectSpec
from accd import pipelines
from accd.errors import OracleMismatchError, RangeError, UnsupportedProgramError
from accd.explorer import DesignConfig
from accd.gti import build_groups, filter_iterative, init_oneshot_state
from accd.metrics import MetricSpec
from accd.pipelines import RunConfig, _Grouped, _sweep, run_kmeans, run_nbody, run_plan
from accd.synth import gaussian_mixture

from conftest import make_plan

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
DESIGN = DesignConfig(n_src_grp=12, n_trg_grp=4, blk=16)
# Counters that must not depend on layout or threads. The tile shape
# counters (tiles_executed, bytes_streamed) and the per-iteration
# source_batches follow the batching, which the layout changes.
PAIR_COUNTERS = (
    "point_distances",
    "bound_computations",
    "grouping_distances",
    "pruned_pairs",
    "all_inside_pairs",
    "reused_pairs",
    "mac_ops",
)


def _sample_plan(name: str, n: int, m: int):
    checked, diags = validate(parse((SAMPLES / name).read_text()))
    assert checked is not None, diags
    return dataclasses.replace(lower(checked), source_size=n, target_size=m)


# name -> (sample, source dataset, target dataset or None, target-set size)
def _case(name: str):
    if name == "kmeans":
        pts = gaussian_mixture(300, 20, 6, seed=1, center_box=20.0)
        return "kmeans.ddsl", pts, None, 12
    if name == "knn":
        src = gaussian_mixture(240, 24, 5, seed=2, center_box=20.0)
        trg = gaussian_mixture(200, 24, 5, seed=3, center_box=20.0)
        return "knn_join.ddsl", src, trg, trg.n
    # tight blobs give group pairs that lie wholly inside the radius; a
    # far row of points spaced wider than the radius has no neighbor, so
    # it feels no force and never moves
    blobs = gaussian_mixture(300, 3, 4, seed=4, center_box=4.0, spread=0.3).values
    still = np.column_stack([100.0 + 2.0 * np.arange(6), np.full((6, 2), 100.0)])
    pts = Dataset.from_values(np.vstack([blobs, still]))
    return "nbody.ddsl", pts, None, pts.n


CASES = ("kmeans", "knn", "nbody")


def _run(name: str, oracle_mode: str = "shadow", **config):
    sample, src, trg, m = _case(name)
    plan = _sample_plan(sample, src.n, m)
    cfg = RunConfig(design=DESIGN, oracle_mode=oracle_mode, **config)
    return run_plan(plan, src, trg, cfg), src.n * m


def _flat(value):
    if isinstance(value, TopKResult):
        yield from (value.ids, value.distances)
    elif isinstance(value, (list, tuple)):
        for part in value:
            yield from _flat(part)
    else:
        yield np.asarray(value)


@pytest.mark.parametrize("name", CASES)
def test_sample_runs_agree_with_oracle_and_conserve_pairs(name):
    result, pairs = _run(name)
    assert result.oracle_checked
    assert result.per_iteration
    for s in result.per_iteration:
        accounted = s.point_distances + s.pruned_pairs + s.all_inside_pairs + s.reused_pairs
        assert accounted == pairs, s
    # the filters do real work on these inputs
    c = result.counters
    assert 0 < c.point_distances < pairs * result.iterations
    assert c.pruned_pairs > 0
    if name == "nbody":
        assert c.all_inside_pairs > 0


def test_nbody_sweeps_step_one_as_one_batch(monkeypatch):
    # with layout, every group shares step 1's full candidate list, so the
    # engine tiles the whole set against each target group in one call
    calls = []
    tile = pipelines.tile_distances
    monkeypatch.setattr(
        pipelines, "tile_distances", lambda *a, **k: calls.append(a[0].shape[0]) or tile(*a, **k)
    )
    sample, pts, _, m = _case("nbody")
    plan = dataclasses.replace(_sample_plan(sample, pts.n, m), max_iter=1)
    result = run_plan(plan, pts, None, RunConfig(design=DESIGN, oracle_mode="shadow"))
    non_empty = sum(stop > start for start, stop in result.layout.group_slices.values())
    assert result.per_iteration[0].source_batches == 1
    assert calls == [pts.n] * non_empty


@pytest.mark.parametrize("name", CASES)
def test_oracle_time_is_spent_only_in_shadow_mode(name):
    shadow, _ = _run(name)
    assert 0 < shadow.oracle_s < shadow.wall_time_s
    off, _ = _run(name, oracle_mode="off")
    assert not off.oracle_checked and off.oracle_s == 0


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize(
    "variant",
    [{"layout_enabled": False}, {"thread_count": 2}, {"thread_count": 4}],
    ids=["layout_off", "threads2", "threads4"],
)
def test_layout_and_threads_change_no_result(name, variant):
    base, _ = _run(name)
    # switch threads often, so a lost update between batches would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        other, _ = _run(name, **variant)
    finally:
        sys.setswitchinterval(interval)
    assert base.iterations == other.iterations
    assert base.outputs.keys() == other.outputs.keys()
    for key in base.outputs:
        got = list(_flat(other.outputs[key]))
        want = list(_flat(base.outputs[key]))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), key
    for f in PAIR_COUNTERS:
        assert getattr(other.counters, f) == getattr(base.counters, f), f
    for a, b in zip(base.per_iteration, other.per_iteration):
        assert dataclasses.replace(a, source_batches=0) == dataclasses.replace(
            b, source_batches=0
        )


def test_self_set_plan_rejects_a_target_set():
    plan = make_plan("iterative_self_set", 20, 20, 3, SelectSpec("radius", 1.0, "smallest"), 1)
    ds = Dataset.from_values(np.random.default_rng(0).normal(size=(20, 3)))
    with pytest.raises(UnsupportedProgramError):
        run_plan(plan, ds, ds)


def test_runner_rejects_a_plan_of_another_kind():
    plan = make_plan("oneshot_two_set", 20, 20, 3, SelectSpec("count", 2.0, "smallest"))
    ds = Dataset.from_values(np.random.default_rng(0).normal(size=(20, 3)))
    with pytest.raises(UnsupportedProgramError):
        run_kmeans(plan, ds, RunConfig(design=DESIGN))


@pytest.mark.parametrize("radius", [0.0, -1.0])
def test_nbody_rejects_a_radius_that_is_not_positive(radius):
    plan = make_plan("iterative_self_set", 20, 20, 3, SelectSpec("radius", radius, "smallest"), 1)
    ds = Dataset.from_values(np.random.default_rng(0).normal(size=(20, 3)))
    with pytest.raises(RangeError):
        run_nbody(plan, ds, RunConfig(design=DESIGN))


# -- the tile engine --------------------------------------------------------

L2 = MetricSpec(kind="L2")


class _Recorder:
    """Reducer that keeps every tile, with a fixed per-point bound."""

    def __init__(self, bound=None):
        self.point_bound = bound
        self.tiles = []

    def bound(self, ids):
        return None if self.point_bound is None else self.point_bound[ids]

    def reduce(self, batch, t, ids, tile, err):
        self.tiles.append((batch[0], t, ids.copy(), tile, err))
        return 0


def _filtered_pair():
    # two far-apart blobs shared by both sets: each source group keeps
    # only the target group of its own blob
    src = gaussian_mixture(60, 3, 2, seed=1, center_box=100.0)
    trg = gaussian_mixture(50, 3, 2, seed=1, center_box=100.0)
    c = CounterSet()
    gm_s = build_groups(src, 2, seed=3, metric=L2, counters=c)
    gm_t = build_groups(trg, 2, seed=4, metric=L2, counters=c)
    lb, ub = init_oneshot_state(gm_s, gm_t, c)
    no_drift = np.zeros(2)
    cm = filter_iterative(gm_s, gm_t, lb, np.full(2, 10.0), no_drift, no_drift, c, ub=ub)
    centre = src.values.mean(axis=0)
    g_src = _Grouped.build(src.values, gm_s, None, L2, centre)
    g_trg = _Grouped.build(trg.values, gm_t, None, L2, centre)
    return src, trg, gm_s, gm_t, lb, cm, (g_src, g_trg)


def test_candidate_masking_skips_pruned_tiles():
    src, trg, gm_s, gm_t, lb, cm, (g_src, g_trg) = _filtered_pair()
    rec = _Recorder()
    kc = _sweep(g_src, g_trg, cm, lb, [[0], [1]], rec, L2, 32, 1)
    candidates = [(g, int(t)) for g in range(2) for t in cm.targets[g]]
    surviving = sum(gm_s.membership[g].size * gm_t.membership[t].size for g, t in candidates)
    assert 0 < kc.point_distances == surviving < 60 * 50
    assert kc.pruned_pairs == 0
    # each candidate group pair is tiled once, with brute-force values;
    # pruned group pairs are never touched
    assert sorted((g, t) for g, t, *_ in rec.tiles) == sorted(candidates)
    full = pairwise_brute(src, trg, L2).values
    for g, t, ids, tile, err in rec.tiles:
        assert np.array_equal(ids, gm_s.membership[g])
        want = full[np.ix_(ids, gm_t.membership[t])]
        assert np.all(np.abs(tile - want) <= err[:, None])


def test_rows_whose_bound_cannot_reach_a_group_are_pruned():
    src, trg, gm_s, gm_t, lb, cm, (g_src, g_trg) = _filtered_pair()
    bound = np.where(np.arange(src.n) % 2 == 0, np.inf, -1.0)  # odd rows reach nothing
    rec = _Recorder(bound)
    kc = _sweep(g_src, g_trg, cm, lb, [[0], [1]], rec, L2, 32, 1)
    candidates = [(g, int(t)) for g in range(2) for t in cm.targets[g]]
    surviving = sum(gm_s.membership[g].size * gm_t.membership[t].size for g, t in candidates)
    assert kc.point_distances + kc.pruned_pairs == surviving
    assert kc.pruned_pairs > 0
    for _, _, ids, *_ in rec.tiles:
        assert np.all(ids % 2 == 0)


# -- exactness in floating point -----------------------------------------------

OFFSETS = [0.0, 1e3, 1e6, 1e7]
# pipeline -> (plan kind, select, metric, steps)
EXACT_CASES = {
    "knn": ("oneshot_two_set", SelectSpec("count", 10.0, "smallest"), "Unweighted L2", None),
    "kmeans_l1": ("iterative_two_set", SelectSpec("count", 1.0, "smallest"), "Unweighted L1", 8),
    "kmeans_l2": ("iterative_two_set", SelectSpec("count", 1.0, "smallest"), "Unweighted L2", 8),
    "nbody": ("iterative_self_set", SelectSpec("radius", 1.0, "smallest"), "Unweighted L2", 3),
}


def _exact_run(
    name, pts, m=None, weights=None, metric=None, design=DESIGN, threads=1, **select
):
    """One shadow-checked run of an ``EXACT_CASES`` pipeline on ``pts``
    (k-means with 20 clusters, the join against itself)."""
    kind, spec, default_metric, steps = EXACT_CASES[name]
    spec = dataclasses.replace(spec, **select)
    m = m if m is not None else (20 if kind == "iterative_two_set" else pts.n)
    plan = make_plan(kind, pts.n, m, pts.d, spec, steps, metric or default_metric)
    cfg = RunConfig(design=design, oracle_mode="shadow", thread_count=threads)
    result = run_plan(plan, pts, None, cfg, weights=weights)
    assert result.oracle_checked
    return result


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("name", list(EXACT_CASES))
def test_results_equal_the_oracle_far_from_the_origin(name, offset):
    # the same blobs moved away from the origin: the fast kernel's
    # cancellation grows with the offset unless rows are centred, and
    # decisions inside its error bound must be settled exactly
    pts = gaussian_mixture(1500, 8, 8, seed=1, center_box=5.0).values + offset
    _exact_run(name, Dataset.from_values(pts))


def _grid(n: int, d: int, seed: int) -> Dataset:
    """Points on the integer grid {0, 1, 2}^d: ties everywhere, and
    duplicate points."""
    return Dataset.from_values(np.random.default_rng(seed).integers(0, 3, size=(n, d)))


@pytest.mark.parametrize("name", list(EXACT_CASES))
def test_tie_heavy_grid_equals_the_oracle(name):
    # radius 2 is an exact grid distance (L2 between points two apart)
    select = {"value": 2.0} if name == "nbody" else {}
    _exact_run(name, _grid(300, 4, seed=5), **select)


@pytest.mark.parametrize(
    "metric", ["Weighted L1", "Weighted L2"], ids=["weighted_l1", "weighted_l2"]
)
@pytest.mark.parametrize("name", ["knn", "kmeans_l1", "nbody"], ids=["knn", "kmeans", "nbody"])
def test_weighted_metrics_equal_the_oracle(name, metric):
    pts = gaussian_mixture(400, 5, 4, seed=6, center_box=5.0).values + 1e6
    w = np.random.default_rng(7).uniform(0.2, 2.0, size=5)
    _exact_run(name, Dataset.from_values(pts), weights=w, metric=metric)


def test_knn_with_k_equal_to_the_target_count():
    pts = gaussian_mixture(60, 3, 3, seed=8, center_box=5.0)
    result = _exact_run("knn", pts, value=60.0)
    assert result.outputs["topk"].ids.shape == (60, 60)


@pytest.mark.parametrize("name", list(EXACT_CASES))
def test_a_single_group_equals_the_oracle(name):
    one = DesignConfig(n_src_grp=1, n_trg_grp=1, blk=16)
    _exact_run(name, gaussian_mixture(200, 4, 3, seed=9, center_box=5.0), design=one)


def test_radius_below_every_pair_distance_finds_no_neighbor():
    pts = _grid(40, 3, seed=10)
    pts = Dataset.from_values(np.unique(pts.values, axis=0) * 10.0)  # pairs 10 or more apart
    result = _exact_run("nbody", pts, value=9.99)
    assert all(lst.size == 0 for step in result.outputs["neighbors"] for lst in step)


def test_knn_shadow_check_compares_distances():
    # the oracle's ids with one distance a rounding off must be caught,
    # naming the point and the first differing column
    real = pipelines.knn_topk

    def off_by_one_ulp(*args, **kwargs):
        ids, dists = real(*args, **kwargs)
        dists[3, 2] = np.nextafter(dists[3, 2], np.inf)
        return ids, dists

    pts = gaussian_mixture(120, 4, 3, seed=11, center_box=5.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipelines, "knn_topk", off_by_one_ulp)
        with pytest.raises(OracleMismatchError) as info:
            _exact_run("knn", pts)
    assert (info.value.detail["point"], info.value.detail["column"]) == (3, 2)


# -- the top-K merge ----------------------------------------------------------


def _full_merge(top_f, top_i, tile, cols, k):
    """The running K + 1 after a tile by a full (value, id) sort of the
    running entries and the whole tile."""
    cat_d = np.concatenate([top_f, tile], axis=1)
    cat_i = np.concatenate([top_i, np.broadcast_to(cols, tile.shape)], axis=1)
    sel = rowwise_lexsort(cat_d, cat_i)[:, : k + 1]
    return np.take_along_axis(cat_d, sel, axis=1), np.take_along_axis(cat_i, sel, axis=1)


def _uniform(n: int, d: int, seed: int) -> Dataset:
    return Dataset.from_values(np.random.default_rng(seed).uniform(size=(n, d)))


# case -> (points, run options); DESIGN has 4 target groups, about 75
# points each at n=300
MERGE_CASES = {
    "uniform": (lambda: _uniform(300, 6, seed=12), {}),
    "grid": (lambda: _grid(300, 4, seed=5), {}),
    "offset_1e6": (
        lambda: Dataset.from_values(
            gaussian_mixture(300, 8, 8, seed=1, center_box=5.0).values + 1e6
        ),
        {},
    ),
    "k_1": (lambda: _grid(300, 4, seed=13), {"value": 1.0}),
    "k_over_a_group": (lambda: _grid(300, 4, seed=14), {"value": 100.0}),
    "k_n": (lambda: _grid(60, 3, seed=15), {"value": 60.0}),
    "two_threads": (lambda: _grid(300, 4, seed=16), {"threads": 2}),
}


@pytest.mark.parametrize("case", list(MERGE_CASES))
def test_topk_merge_equals_a_full_sort_after_every_tile(monkeypatch, case):
    # the survivor-filtered merge must leave the running K + 1 and its
    # error bound bitwise where a full sort of the running entries and
    # the whole tile would, ties across the K + 1 boundary included
    make, options = MERGE_CASES[case]
    real = pipelines._TopK.reduce
    tiles = []

    def checked(self, batch, t, ids, tile, err):
        want_f, want_i = _full_merge(self.top_f[ids], self.top_i[ids], tile, self.members[t], self.k)
        want_err = np.maximum(self.err[ids], err)
        recomputed = real(self, batch, t, ids, tile, err)
        assert np.array_equal(self.top_f[ids].view(np.int64), want_f.view(np.int64))
        assert np.array_equal(self.top_i[ids], want_i)
        assert np.array_equal(self.err[ids], want_err)
        tiles.append(t)
        return recomputed

    monkeypatch.setattr(pipelines._TopK, "reduce", checked)
    _exact_run("knn", make(), **options)
    assert tiles
