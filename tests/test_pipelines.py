"""The sample programs end to end through ``run_plan``, checked against the
shadow oracle, plus the run invariants: every point pair is accounted for
on every iteration, and neither the packing order, the thread count nor
the tile budget changes a result. The tile engine is also driven
directly, with a recording reducer, over two packing orders."""

import dataclasses
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from accd.counters import CounterSet
from accd.dataset import Dataset, NeighborLists, TopKResult, brute_rows
from accd.ddsl import lower, parse, validate
from accd.ddsl.lowering import SelectSpec
from accd import gti, oracles, pipelines
from accd.errors import OracleMismatchError, RangeError, UnsupportedProgramError
from accd.explorer import DesignConfig
from accd.gti import _cut, build_groups, init_oneshot_state, two_landmark_bounds
from accd.kernel import fast_rows
from accd.layout import pack_intra_group
from accd.metrics import METRIC_NAMES, MetricSpec, rowwise_distance
from accd.pipelines import (
    RunConfig,
    _Grouped,
    _sweep,
    default_force_rule,
    run_kmeans,
    run_nbody,
    run_plan,
)
from accd.synth import gaussian_mixture

from conftest import make_plan, pack_reversed

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
DESIGN = DesignConfig(n_src_grp=12, n_trg_grp=4)
# Counters that must not depend on threads or the tile budget. The tile
# shape counters (tiles_executed, bytes_streamed) follow the tiling, which
# the budget changes.
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
        # the two sets' blobs lie apart and the target groups straddle them:
        # the landmark cut prunes nothing (``_assert_no_prune``)
        src = gaussian_mixture(240, 24, 5, seed=2, center_box=20.0)
        trg = gaussian_mixture(200, 24, 5, seed=3, center_box=20.0)
        return "knn_join.ddsl", src, trg, trg.n
    if name == "knn_blobs":
        # both sets drawn around the same four blobs: the cut prunes
        src = gaussian_mixture(240, 24, 4, seed=7, center_box=20.0)
        trg = gaussian_mixture(200, 24, 4, seed=7, center_box=20.0)
        return "knn_join.ddsl", src, trg, trg.n
    # tight blobs give group pairs whose landmark bounds lie wholly inside
    # the radius plus the skin; a far row of points spaced wider than the
    # radius has no neighbor, so it feels no force and never moves
    blobs = gaussian_mixture(300, 3, 4, seed=4, center_box=4.0, spread=0.3).values
    still = np.column_stack([100.0 + 2.0 * np.arange(6), np.full((6, 2), 100.0)])
    pts = Dataset.from_values(np.vstack([blobs, still]))
    return "nbody.ddsl", pts, None, pts.n


CASES = ("kmeans", "knn", "knn_blobs", "nbody")


def _run(name: str, oracle_mode: str = "shadow", design: DesignConfig = DESIGN, **config):
    sample, src, trg, m = _case(name)
    plan = _sample_plan(sample, src.n, m)
    cfg = RunConfig(design=design, oracle_mode=oracle_mode, **config)
    return run_plan(plan, src, trg, cfg), src.n * m


def _members(gm) -> list[np.ndarray]:
    """Per group, its member ids in ascending order."""
    return oracles.group_members(gm.group_of, gm.z)


def _flat(value):
    if isinstance(value, TopKResult):
        yield from (value.ids, value.distances)
    elif isinstance(value, NeighborLists):
        yield from (value.offsets, value.ids)
    elif isinstance(value, (list, tuple)):
        for part in value:
            yield from _flat(part)
    else:
        yield np.asarray(value)


def _assert_no_prune(result, m: int, n: int, design: DesignConfig = DESIGN) -> None:
    """The facts of a join of m source against n target points whose
    landmark cut prunes nothing: every point has every target group as its
    candidate, so the sweep is one batch of all m points, and it tiles
    every pair once, in row blocks of
    ``_TopK.TILE_CELLS // n``; the cut tiles the points against the target
    landmarks in row blocks of ``_TopK.TILE_CELLS // z``, as bound work."""
    (s,) = result.per_iteration
    z = min(design.n_trg_grp, n)
    assert (s.pruned_pairs, s.point_distances) == (0, m * n)
    assert s.source_batches == 1 and len(result.layout.group_slices) == z
    assert s.bound_computations == n + m * z  # the targets' offsets, then the cut
    cells = pipelines._TopK.TILE_CELLS
    assert result.counters.tiles_executed == -(-m // max(1, cells // n)) + -(-m // (cells // z))


@pytest.mark.parametrize("name", CASES)
def test_sample_runs_agree_with_oracle_and_conserve_pairs(name):
    result, pairs = _run(name)
    assert result.oracle_s > 0
    assert result.per_iteration
    for s in result.per_iteration:
        accounted = s.point_distances + s.pruned_pairs + s.all_inside_pairs + s.reused_pairs
        assert accounted == pairs, s
    c = result.counters
    if name == "knn":
        _assert_no_prune(result, 240, 200)
        return
    # the filters do real work on these inputs
    assert 0 < c.point_distances < pairs * result.iterations
    assert c.pruned_pairs > 0
    if name == "nbody":
        assert c.all_inside_pairs == 0  # every kept group pair is tiled


def _record_cuts(monkeypatch) -> list:
    """Patch ``_Radius.resolve`` to keep each step's keep mask, with the
    reducer's group model."""
    resolve, cuts = pipelines._Radius.resolve, []

    def resolving(self, keep, counters):
        cuts.append((keep.copy(), self.gm))
        return resolve(self, keep, counters)

    monkeypatch.setattr(pipelines._Radius, "resolve", resolving)
    return cuts


def test_nbody_step_one_tiles_only_the_group_pairs_its_landmark_bounds_keep(monkeypatch):
    # step 1 cuts the landmark bounds at the radius plus the Verlet skin: a
    # kept unordered group pair is tiled, member pair by member pair,
    # exactly once, in its upper orientation (b >= a), in tiles within the
    # radius reducer's budget, and its lower orientation is mirrored, never
    # tiled; a pruned one lies wholly beyond the cut and is not tiled
    sample, pts, _, m = _case("nbody")
    plan = dataclasses.replace(_sample_plan(sample, pts.n, m), max_iter=1)
    full = brute_rows(pts.values, pts.values, L2)
    radius = float(plan.select.value)
    cut = radius + radius * pipelines._SKIN_FRACTION
    assert cut > radius
    reduce, cuts = pipelines._Radius.reduce, _record_cuts(monkeypatch)
    default, counts = pipelines._Radius.TILE_CELLS, {}
    # 512 cells hold less than one group pair, so its tiles split rows
    for cells in (default, 4096, 512):
        tiles, reducers = [], set()
        cuts.clear()

        def recording(self, groups, cols, col_starts, ids, tile, err):
            assert np.array_equal(cols, np.concatenate([_members(self.gm)[t] for t in groups]))
            tiles.append((ids.copy(), cols, tile.size))
            reducers.add(self)
            reduce(self, groups, cols, col_starts, ids, tile, err)

        monkeypatch.setattr(pipelines._Radius, "reduce", recording)
        monkeypatch.setattr(pipelines._Radius, "TILE_CELLS", cells)
        result = run_plan(plan, pts, None, RunConfig(design=DESIGN, oracle_mode="shadow"))
        ((keep, _),), (within,) = cuts, reducers
        assert within.cut == cut
        members = _members(within.gm)
        # 0 pruned, 1 tiled, 2 mirrored from the tiled upper cell
        kind = np.zeros(within.lb.shape, dtype=int)
        for a, row in enumerate(keep):
            cand = np.flatnonzero(row)
            kind[a, cand] = np.where(cand >= a, 1, 2)
        assert np.array_equal(kind == 2, (kind == 1).T & ~np.eye(kind.shape[0], dtype=bool))
        tiled = np.zeros((pts.n, pts.n), dtype=int)
        for ids, cols, size in tiles:
            assert size <= cells or ids.size == 1
            tiled[np.ix_(ids, cols)] += 1
        for a, b in np.ndindex(kind.shape):
            cell = np.ix_(members[a], members[b])
            assert np.all(tiled[cell] == (kind[a, b] == 1)), (a, b)
            if kind[a, b] == 0:
                assert np.all(full[cell] > cut), (a, b)
            # every group pair's lower bound holds all its member pairs:
            # tiled and mirrored ones where their rows were split across
            # tiles, the others with their landmark bounds
            if full[cell].size:
                assert within.lb[a, b] <= full[cell].min()
        # the stored list: int32 pairs i < j in (i, j) order, each once,
        # holding every pair within the cut
        li, lj = within.li, within.lj
        assert li.dtype == lj.dtype == np.int32 and np.all(li < lj)
        assert np.all(np.diff(li.astype(np.int64) * pts.n + lj) > 0)
        listed = np.zeros((pts.n, pts.n), dtype=bool)
        listed[li, lj] = True
        assert not np.any(np.triu(full <= cut, 1) & ~listed)
        sizes = within.gm.sizes
        # group pairs whose landmark ub lies within the cut are kept and
        # tiled from the upper cell like any other, every member pair listed
        gm = within.gm
        pair = brute_rows(gm.landmarks, gm.landmarks, gm.metric)
        _, ub = two_landmark_bounds(pair, gm.radius[:, None], gm.radius, gm.slack)
        inside = (ub <= cut) & (np.outer(sizes, sizes) > 0)
        upper = np.triu(np.ones(inside.shape, dtype=bool))
        assert inside.any()
        assert np.all(kind[inside & upper] == 1) and np.all(kind[inside & ~upper] == 2)
        for a, b in zip(*np.nonzero(inside)):
            i, j = np.meshgrid(members[a], members[b], indexing="ij")
            assert np.all(full[i, j] <= cut), (a, b)
            assert np.all((listed | listed.T)[i, j] | (i == j)), (a, b)
        pairs = {k: int(np.sum((kind == k) * np.outer(sizes, sizes))) for k in range(3)}
        assert all(pairs.values()), pairs  # each kind occurs
        step1 = result.per_iteration[0]
        assert (
            step1.pruned_pairs, step1.point_distances, step1.all_inside_pairs, step1.reused_pairs
        ) == (pairs[0], pairs[1], 0, pairs[2])
        counts[cells] = len(tiles)
    assert counts[512] > counts[default]


def _record_symmetry(monkeypatch) -> list:
    """Patch ``_Radius.store_list``, which ends each rebuild's sweep, to
    check that the group-pair lower bounds are exactly symmetric; returns
    the rebuilds' reducers."""
    store, seen = pipelines._Radius.store_list, []

    def storing(self):
        assert np.array_equal(self.lb, self.lb.T)
        seen.append(self)
        return store(self)

    monkeypatch.setattr(pipelines._Radius, "store_list", storing)
    return seen


def _rebuilds(result) -> int:
    """The steps of an n-body run that rebuilt its list: only they sweep
    source batches."""
    return sum(s.source_batches > 0 for s in result.per_iteration)


def _reversed_packing(monkeypatch, variant):
    """The RunConfig fields of ``variant``. Its ``reversed_packing`` key
    instead makes every run pack its groups in reverse id order, so no
    group run is the slice it would otherwise be; its ``reversed_runs``
    key makes every sweep take the runs of ``reorder_inter_group`` last
    first."""
    variant = dict(variant)
    if variant.pop("reversed_packing", False):
        monkeypatch.setattr(pipelines, "pack_intra_group", pack_reversed)
    if variant.pop("reversed_runs", False):
        real = pipelines.reorder_inter_group

        def reorder_reversed(reach):
            order, starts = real(reach)
            runs = np.split(order, starts[1:])[::-1] if starts.size else []
            sizes = np.array([run.size for run in runs], dtype=np.int64)
            return np.concatenate([order[:0], *runs]), np.cumsum(sizes) - sizes

        monkeypatch.setattr(pipelines, "reorder_inter_group", reorder_reversed)
    return variant


def _strong_pull(groups=16, **variant):
    """A large step and little softening throw points across the blobs, so
    group pairs the landmark bounds prune at step 1 hold neighbor pairs
    later."""
    pts = gaussian_mixture(240, 3, 8, seed=0, center_box=3.0, spread=0.25)
    radius = SelectSpec(0.6)
    plan = make_plan("iterative_self_set", pts.n, pts.n, 3, radius, 4)
    design = DesignConfig(n_src_grp=groups, n_trg_grp=4)
    cfg = RunConfig(design=design, oracle_mode="shadow", dt=0.05, softening=1e-3, **variant)
    return pts, run_plan(plan, pts, None, cfg)


@pytest.mark.parametrize(
    "case, variant",
    [
        ("sample", {}),
        ("sample", {"reversed_packing": True}),
        ("sample", {"thread_count": 2}),
        ("strong_pull", {}),
    ],
    ids=["sample_layout_on", "sample_reversed_packing", "sample_threads2", "strong_pull"],
)
def test_nbody_group_pair_bounds_stay_symmetric(monkeypatch, case, variant):
    # one upper cell decides both orientations of a group pair, so the
    # cut is sound only while every rebuild leaves lb symmetric
    seen = _record_symmetry(monkeypatch)
    variant = _reversed_packing(monkeypatch, variant)
    if case == "sample":
        result, _ = _run("nbody", **variant)
    else:
        _, result = _strong_pull(**variant)
    assert result.oracle_s > 0 and len(seen) == _rebuilds(result) >= 1
    assert result.per_iteration[0].source_batches > 0  # step 1 rebuilds
    assert result.counters.reused_pairs > 0


@pytest.mark.parametrize("name", CASES)
def test_oracle_time_is_spent_only_in_shadow_mode(name):
    shadow, _ = _run(name)
    assert 0 < shadow.oracle_s < shadow.wall_time_s
    off, _ = _run(name, oracle_mode="off")
    assert off.oracle_s == 0


def _assert_same_results(base, other):
    """Bitwise equal outputs and equal pair counters."""
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


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize(
    "variant",
    [
        {"reversed_packing": True},
        {"reversed_runs": True},
        {"thread_count": 2},
        {"thread_count": 4},
    ],
    ids=["reversed_packing", "reversed_runs", "threads2", "threads4"],
)
def test_layout_and_threads_change_no_result(monkeypatch, name, variant):
    base, _ = _run(name)
    reverse = variant.get("reversed_packing", False)
    variant = _reversed_packing(monkeypatch, variant)
    # switch threads often, so a lost update between batches would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        other, _ = _run(name, **variant)
    finally:
        sys.setswitchinterval(interval)
    assert reverse != np.array_equal(base.layout.group_slices, other.layout.group_slices)
    _assert_same_results(base, other)
    if name == "knn":
        _assert_no_prune(other, 240, 200)
    for a, b in zip(base.per_iteration, other.per_iteration):
        assert dataclasses.replace(a, source_batches=0) == dataclasses.replace(
            b, source_batches=0
        )


@pytest.mark.parametrize("name", CASES)
def test_a_small_tile_budget_changes_no_result(monkeypatch, name):
    # tiles of a few rows split each group pair across many row blocks,
    # whose per-pair bounds the reducers must fold, not overwrite
    base, _ = _run(name)
    for reducer in (pipelines._Yinyang, pipelines._TopK, pipelines._Radius):
        monkeypatch.setattr(reducer, "TILE_CELLS", 40)
    small, _ = _run(name)
    assert small.counters.tiles_executed > base.counters.tiles_executed
    _assert_same_results(base, small)
    if name == "knn":
        _assert_no_prune(small, 240, 200)
    # every pipeline counts its swept batches, which the row blocks split
    # but do not change
    assert small.per_iteration == base.per_iteration


@pytest.mark.parametrize("name", CASES)
def test_cost_model_knobs_change_no_run(name):
    # blk, simd and unroll feed only the explorer's model: designs with the
    # same group counts run identically, counter for counter
    low, _ = _run(name, design=dataclasses.replace(DESIGN, blk=16, simd=1, unroll=1))
    high, _ = _run(name, design=dataclasses.replace(DESIGN, blk=256, simd=8, unroll=8))
    _assert_same_results(low, high)
    assert low.counters == high.counters
    assert low.per_iteration == high.per_iteration


def test_self_set_plan_rejects_a_target_set():
    plan = make_plan("iterative_self_set", 20, 20, 3, SelectSpec(1.0), 1)
    ds = Dataset.from_values(np.random.default_rng(0).normal(size=(20, 3)))
    with pytest.raises(UnsupportedProgramError):
        run_plan(plan, ds, ds)


def test_runner_rejects_a_plan_of_another_kind():
    plan = make_plan("oneshot_two_set", 20, 20, 3, SelectSpec(2.0))
    ds = Dataset.from_values(np.random.default_rng(0).normal(size=(20, 3)))
    with pytest.raises(UnsupportedProgramError):
        run_kmeans(plan, ds, RunConfig(design=DESIGN))


@pytest.mark.parametrize(
    "field, value",
    [
        ("status_iter_cap", 0),
        ("status_iter_cap", -3),
        ("dt", float("nan")),
        ("dt", float("inf")),
        ("softening", float("nan")),
        ("softening", -float("inf")),
        ("thread_count", 0),
        ("oracle_mode", "always"),
    ],
)
def test_run_config_rejects_a_bad_value(field, value):
    # a status run capped at 0 iterations returns no assignments yet would
    # report a passed shadow check; a NaN step gives NaN trajectories whose
    # empty neighbor lists the oracle agrees with
    with pytest.raises(RangeError):
        RunConfig(design=DESIGN, **{field: value})


@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
def test_nbody_rejects_a_radius_that_is_not_positive(radius):
    # a NaN radius would prune every pair, and the oracle would agree
    plan = make_plan("iterative_self_set", 20, 20, 3, SelectSpec(radius), 1)
    ds = Dataset.from_values(np.random.default_rng(0).normal(size=(20, 3)))
    with pytest.raises(RangeError):
        run_nbody(plan, ds, RunConfig(design=DESIGN, oracle_mode="shadow"))
    with pytest.raises(RangeError):
        oracles.radius_neighbors(ds.values, L2, radius)


# -- the tile engine --------------------------------------------------------

L2 = MetricSpec(kind="L2")


class _Recorder:
    """Reducer that keeps every tile, under its first row's source group."""

    TILE_CELLS = 1 << 15

    def __init__(self, group_of: np.ndarray):
        self.group_of = group_of
        self.tiles = []

    def reduce(self, groups, cols, col_starts, ids, tile, err):
        (t,) = groups
        self.tiles.append((int(self.group_of[ids[0]]), t, ids.copy(), tile, err))


class _WideRecorder(_Recorder):
    """Reducer that keeps every tile with its target groups."""

    def reduce(self, groups, cols, col_starts, ids, tile, err):
        self.tiles.append((tuple(groups), cols, col_starts, ids.copy(), tile, err))


def _filtered_pair():
    # two far-apart blobs shared by both sets: each source group keeps
    # only the target group of its own blob, and its points that group's row
    src = gaussian_mixture(60, 3, 2, seed=1, center_box=100.0)
    trg = gaussian_mixture(50, 3, 2, seed=1, center_box=100.0)
    c = CounterSet()
    gm_s = build_groups(src, 2, seed=3, metric=L2, counters=c)
    gm_t = build_groups(trg, 2, seed=4, metric=L2, counters=c)
    lb = init_oneshot_state(gm_s, gm_t, c)
    keep = _cut(lb, np.full(2, 10.0), gm_s.sizes, gm_t.sizes, c)
    centre = src.values.mean(axis=0)
    rows = fast_rows(src.values, centre, L2)
    g_trg = _Grouped.build(trg.values, gm_t, pack_intra_group(trg, gm_t), L2, centre)
    return src, trg, gm_s, gm_t, keep, (rows, g_trg)


def test_candidate_masking_skips_pruned_tiles():
    src, trg, gm_s, gm_t, keep, (rows, g_trg) = _filtered_pair()
    rec, kc = _Recorder(gm_s.group_of), CounterSet()
    batches = _sweep(rows, np.arange(src.n), keep[gm_s.group_of], g_trg, rec, L2, kc, 1)
    candidates = [(g, int(t)) for g in range(2) for t in np.flatnonzero(keep[g])]
    surviving = sum(int(gm_s.sizes[g] * gm_t.sizes[t]) for g, t in candidates)
    assert 0 < kc.point_distances == surviving < 60 * 50
    assert kc.pruned_pairs == 0 and batches == 2
    # each candidate group pair is tiled once, with brute-force values;
    # pruned group pairs are never touched
    assert sorted((g, t) for g, t, *_ in rec.tiles) == sorted(candidates)
    full = brute_rows(src.values, trg.values, L2)
    for g, t, ids, tile, err in rec.tiles:
        assert np.array_equal(ids, _members(gm_s)[g])
        want = full[np.ix_(ids, _members(gm_t)[t])]
        assert np.all(np.abs(tile - want) <= err[:, None])


def _wide_case(reverse: bool):
    # five target groups over four blobs
    src = gaussian_mixture(90, 3, 4, seed=21, center_box=10.0)
    trg = gaussian_mixture(120, 3, 4, seed=22, center_box=10.0)
    gm_t = build_groups(trg, 5, seed=4, metric=L2, counters=CounterSet())
    centre = src.values.mean(axis=0)
    # packed in group-id order, a run of ascending groups is one slice of
    # the packing; reversed, a run of two non-empty groups never is, and the
    # engine gathers its columns
    plan = pack_reversed(trg, gm_t) if reverse else pack_intra_group(trg, gm_t)
    g_trg = _Grouped.build(trg.values, gm_t, plan, L2, centre)
    return src, trg, gm_t, fast_rows(src.values, centre, L2), g_trg


@pytest.mark.parametrize("cap", [None, 64], ids=["default_cap", "small_cap"])
@pytest.mark.parametrize("batches", [3, 1], ids=["alone", "batched"])
@pytest.mark.parametrize("reverse", [False, True], ids=["id_order", "reversed"])
def test_sweep_tiles_each_row_once_against_all_of_its_batch_groups(reverse, batches, cap):
    # the points reach every target group, or each of ``batches`` reach
    # patterns, taken by point id mod ``batches``, leaves out one more group
    src, trg, gm_t, rows, g_trg = _wide_case(reverse)
    rec = _WideRecorder(None)
    if cap is not None:
        rec.TILE_CELLS = cap
    pattern = np.arange(src.n) % batches
    reach = np.ones((src.n, gm_t.z), dtype=bool)
    if batches > 1:
        reach[np.arange(src.n), pattern + 1] = False
    kc = CounterSet()
    assert _sweep(rows, np.arange(src.n), reach, g_trg, rec, L2, kc, 1) == batches

    full = brute_rows(src.values, trg.values, L2)
    tiled = np.zeros((src.n, gm_t.z), dtype=int)
    entered = np.zeros(src.n, dtype=int)
    tile_batches = []
    for groups, cols, col_starts, ids, tile, err in rec.tiles:
        assert ids.size >= 1 and np.all(np.diff(ids) > 0)
        # a tile's rows come from one batch
        (batch,) = set(pattern[ids].tolist())
        tile_batches.append((batch, groups))
        assert tile.size <= rec.TILE_CELLS or ids.size == 1
        assert np.array_equal(cols, np.concatenate([_members(gm_t)[t] for t in groups]))
        sizes_in = gm_t.sizes[list(groups)]
        assert np.array_equal(col_starts, np.cumsum(sizes_in) - sizes_in)
        assert np.all(np.abs(tile - full[np.ix_(ids, cols)]) <= err[:, None])
        for i in ids.tolist():
            tiled[i, list(groups)] += 1
            entered[i] += 1
    # every row enters exactly one tile, against every non-empty group
    # its row of the mask names, and nothing else
    assert np.all(entered == 1)
    assert np.array_equal(tiled, (reach & (gm_t.sizes > 0)).astype(int))
    # a batch's rows share its tiles unless the cap splits them
    shared = set(tile_batches)
    assert len(shared) == batches
    assert (len(shared) < len(rec.tiles)) == (cap is not None)
    assert kc.point_distances == int((reach @ gm_t.sizes).sum())
    assert kc.pruned_pairs == 0


# -- exactness in floating point -----------------------------------------------

OFFSETS = [0.0, 1e3, 1e6, 1e7]
# pipeline -> (plan kind, select, metric, steps)
EXACT_CASES = {
    "knn": ("oneshot_two_set", SelectSpec(10.0), "Unweighted L2", None),
    "kmeans_l1": ("iterative_two_set", SelectSpec(1.0), "Unweighted L1", 8),
    "kmeans_l2": ("iterative_two_set", SelectSpec(1.0), "Unweighted L2", 8),
    "nbody": ("iterative_self_set", SelectSpec(1.0), "Unweighted L2", 3),
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
    assert result.oracle_s > 0
    return result


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("name", list(EXACT_CASES))
def test_results_equal_the_oracle_far_from_the_origin(name, offset):
    # the same blobs moved away from the origin: the fast kernel's
    # cancellation grows with the offset unless rows are centred, and
    # decisions inside its error bound must be settled exactly
    pts = gaussian_mixture(1500, 8, 8, seed=1, center_box=5.0).values + offset
    _exact_run(name, Dataset.from_values(pts))


def _wide(case: str, scale: float = 1e154) -> Dataset:
    """60 points in 3-d: Gaussian points times ``scale`` ("scaled"), or
    unit-scale points with one coordinate of 1e200 ("one_coordinate")."""
    pts = np.random.default_rng(0).normal(size=(60, 3))
    if case == "scaled":
        pts *= scale
    else:
        pts[17, 1] = 1e200
    return Dataset.from_values(pts)


@pytest.mark.parametrize("oracle_mode", ["off", "shadow"])
@pytest.mark.parametrize("case", ["scaled", "one_coordinate"])
@pytest.mark.parametrize("name", ["knn", "kmeans_l2", "nbody"])
def test_l2_inputs_whose_distances_overflow_are_a_range_error(name, case, oracle_mode):
    # finite inputs whose squared distances overflow: the runner rejects
    # them at entry, whether or not the oracle runs
    pts = _wide(case)
    kind, spec, metric, steps = EXACT_CASES[name]
    plan = make_plan(kind, pts.n, 20 if name == "kmeans_l2" else pts.n, 3, spec, steps, metric)
    with pytest.raises(RangeError):
        run_plan(plan, pts, None, RunConfig(design=DESIGN, oracle_mode=oracle_mode))


@pytest.mark.parametrize("name", ["knn", "kmeans_l2", "nbody"])
def test_l2_inputs_just_inside_the_domain_equal_the_oracle(name):
    # a tenth of the scale that overflows still runs, and exactly
    select = {"value": 1.5e153} if name == "nbody" else {}
    result = _exact_run(name, _wide("scaled", 1e153), **select)
    if name == "nbody":
        assert result.outputs["neighbors"][0].ids.size > 0


def test_kmeans_initial_clusters_outside_the_domain_are_a_range_error():
    pts = _wide("scaled", 1.0)
    init = pts.values[:5].copy()
    init[2, 0] = 1e200
    plan = make_plan("iterative_two_set", pts.n, 5, 3, SelectSpec(1.0), 4)
    with pytest.raises(RangeError):
        run_kmeans(plan, pts, RunConfig(design=DESIGN), initial_clusters=init)


@pytest.mark.parametrize(
    "flung, acc",
    [([3], 1.1e160), ([3], 1e202), (slice(None), 1.5e160)],
    ids=["one_point_1.1e160", "one_point_1e202", "all_points_1.5e160"],
)
def test_nbody_rechecks_the_domain_at_a_rebuild(monkeypatch, flung, acc):
    # a force that flings points about 1e154 or more away (dt = 1e-3) is
    # a range error, the oracle off, whether it is caught at the next
    # rebuild or would overflow the step's own drift first: by one point
    # 1.1e154 away, then 1e196 away, or by all of them shifted 1.5e154 at
    # once, which leaves each step's spread as it was
    def flinging(pos, pair_i, pair_j, r2, softening):
        acc_all = np.zeros_like(pos)
        acc_all[flung, 0] = acc
        return acc_all

    monkeypatch.setattr(pipelines, "default_force_rule", flinging)
    pts = _wide("scaled", 1.0)
    kind, spec, metric, _ = EXACT_CASES["nbody"]
    plan = make_plan(kind, pts.n, pts.n, 3, spec, 3, metric)
    with pytest.raises(RangeError):
        run_plan(plan, pts, None, RunConfig(design=DESIGN))


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
    one = DesignConfig(n_src_grp=1, n_trg_grp=1)
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


# case -> a shadow-checked run on some thread count; every set has more
# than 16 points per group, so grouping samples
SAMPLED_RUNS = {
    "knn_gti": lambda threads: _run("knn_blobs", thread_count=threads)[0],
    "knn_no_prune": lambda threads: _run("knn", thread_count=threads)[0],
    # 9 distinct points and 12 target groups: some groups end up empty
    "knn_empty_groups": lambda threads: _exact_run(
        "knn", _grid(300, 2, seed=5), threads=threads, design=DesignConfig(12, 12)
    ),
    # 8 groups of 240 points; the strong pull rebuilds after step 1
    "nbody_rebuilds": lambda threads: _strong_pull(groups=8, thread_count=threads)[1],
}


@pytest.mark.parametrize("case", list(SAMPLED_RUNS))
def test_sampled_grouping_equals_the_oracle_on_one_and_two_threads(monkeypatch, case):
    # each grouping runs its Lloyd rounds on 16 points per group and only
    # its final pass on every point; the runs pass the shadow check, and
    # two threads give the results of one
    run = SAMPLED_RUNS[case]
    rows, models = [], []
    real_assign, real_build = gti._assign_nearest, pipelines.build_groups

    def assign(values, *args, **kwargs):
        rows.append(values.shape[0])
        return real_assign(values, *args, **kwargs)

    def build(*args):
        models.append(real_build(*args))
        return models[-1]

    monkeypatch.setattr(gti, "_assign_nearest", assign)
    monkeypatch.setattr(pipelines, "build_groups", build)
    results = []
    for threads in (1, 2):
        rows.clear()
        models.clear()
        results.append(run(threads))
        assert results[-1].oracle_s > 0
        want = []
        for gm in models:
            sample = gti._LLOYD_SAMPLE_PER_GROUP * gm.z
            assert sample < gm.n
            want += [sample] * gti._LLOYD_ITERATIONS + [gm.n]
        assert want and rows == want
    if case == "knn_no_prune":
        for result in results:
            _assert_no_prune(result, 240, 200)
    elif case.startswith("knn"):
        assert results[0].counters.pruned_pairs > 0
    if case == "knn_empty_groups":
        assert any((gm.sizes == 0).any() for gm in models)
    if case == "nbody_rebuilds":
        assert _rebuilds(results[0]) > 1
    _assert_same_results(*results)


# -- the top-K selection ------------------------------------------------------


def _uniform(n: int, d: int, seed: int) -> Dataset:
    return Dataset.from_values(np.random.default_rng(seed).uniform(size=(n, d)))


def _grid_blobs(n: int, d: int, seed: int) -> Dataset:
    """Three copies of the integer grid {0, 1, 2}^d, 50 apart along the
    diagonal: ties everywhere, and blobs the landmark cut can prune
    between."""
    rng = np.random.default_rng(seed)
    return Dataset.from_values(rng.integers(0, 3, size=(n, d)) + 50.0 * rng.integers(0, 3, size=(n, 1)))


# case -> (points, run options, whether the landmark cut prunes); DESIGN
# has 4 target groups, about 75 points each at n=300. The cut prunes
# nothing on the first seven and something on the rest
SELECT_CASES = {
    "uniform": (lambda: _uniform(300, 6, seed=12), {}, False),
    "grid": (lambda: _grid(300, 4, seed=5), {}, False),
    "offset_1e6": (
        lambda: Dataset.from_values(
            gaussian_mixture(300, 8, 8, seed=1, center_box=5.0).values + 1e6
        ),
        {},
        False,
    ),
    "k_1": (lambda: _grid(300, 4, seed=13), {"value": 1.0}, False),
    "k_over_a_group": (lambda: _grid(300, 4, seed=14), {"value": 100.0}, False),
    "k_n": (lambda: _grid(60, 3, seed=15), {"value": 60.0}, False),
    "two_threads": (lambda: _grid(300, 4, seed=16), {"threads": 2}, False),
    "blobs_grid": (lambda: _grid_blobs(300, 4, seed=12), {}, True),
    "blobs_offset_1e6": (
        lambda: Dataset.from_values(
            gaussian_mixture(300, 6, 4, seed=12, center_box=20.0).values + 1e6
        ),
        {},
        True,
    ),
    "blobs_k_1": (lambda: _grid_blobs(300, 4, seed=13), {"value": 1.0}, True),
    "blobs_k_over_a_group": (lambda: _grid_blobs(300, 4, seed=14), {"value": 100.0}, True),
    "blobs_two_threads": (lambda: _grid_blobs(300, 4, seed=16), {"threads": 2}, True),
}


def _assert_k_plus_1(top_f, top_i, vals, cols, placeholder) -> None:
    """One row of ``_TopK``'s state against the row's one tile (values
    ``vals`` at targets ``cols``): bitwise the ascending K + 1 smallest
    values, at distinct targets whose tile values they are, in whatever
    order ties came; a row shorter than K + 1 ends in placeholders."""
    keep = min(top_f.size, vals.size)
    assert np.array_equal(top_f[:keep].view(np.int64), np.sort(vals)[:keep].view(np.int64))
    assert np.all(top_f[keep:] == np.inf) and np.all(top_i[keep:] == placeholder)
    ids = top_i[:keep]
    assert np.unique(ids).size == keep
    at = np.argsort(cols)
    pos = at[np.searchsorted(cols, ids, sorter=at)]
    assert np.array_equal(cols[pos], ids)
    assert np.array_equal(vals[pos].view(np.int64), top_f[:keep].view(np.int64))


@pytest.mark.parametrize("case", list(SELECT_CASES))
def test_topk_state_after_the_sweep_equals_a_full_sort_of_its_tiles(monkeypatch, case):
    # after the sweep each row's K + 1 values must be bitwise the smallest
    # of its one tile, in ascending order, each at a target that holds it,
    # and its error bound the tile's: a tile against all of its batch's
    # candidate groups, every target group where the cut prunes nothing;
    # ``reduce`` fills each row exactly once
    make, options, prunes = SELECT_CASES[case]
    real_init, real_reduce = pipelines._TopK.__init__, pipelines._TopK.reduce
    real_settle = pipelines._TopK.settle
    entries: dict[int, list] = {}
    checked, target_groups = [], []

    def init(self, m, k, trg_gm):
        target_groups.append(trg_gm)
        real_init(self, m, k, trg_gm)

    def reducing(self, groups, cols, col_starts, ids, tile, err):
        # the members of whole target groups, concatenated
        gm = target_groups[-1]
        assert np.array_equal(cols, np.concatenate([_members(gm)[t] for t in groups]))
        for r, i in enumerate(ids.tolist()):
            entries.setdefault(i, []).append((tile[r].copy(), cols, err[r]))
        real_reduce(self, groups, cols, col_starts, ids, tile, err)

    def settle(self, src, trg, *args):
        for i in range(self.top_f.shape[0]):
            assert len(entries.get(i, [])) == 1  # one tile per row
            ((vals, idx, err),) = entries[i]
            _assert_k_plus_1(self.top_f[i], self.top_i[i], vals, idx, trg.shape[0])
            assert self.err[i] == err
        checked.append(len(entries))
        return real_settle(self, src, trg, *args)

    monkeypatch.setattr(pipelines._TopK, "__init__", init)
    monkeypatch.setattr(pipelines._TopK, "reduce", reducing)
    monkeypatch.setattr(pipelines._TopK, "settle", settle)
    pts = make()
    result = _exact_run("knn", pts, **options)
    assert checked and checked[0] > 0
    if prunes:
        assert result.counters.pruned_pairs > 0
    else:
        _assert_no_prune(result, pts.n, pts.n)



@pytest.mark.parametrize("threads", [1, 2])
def test_gti_join_tiles_every_pair_the_group_cut_keeps(monkeypatch, threads):
    # nothing is pruned below the per-point cut: each source row is tiled
    # once against every member of its candidate groups, so the pairs
    # tiled are exactly the pairs the cut keeps, and each batch is one
    # distinct row of the keep mask
    real_sweep, seen = pipelines._sweep, []

    def sweep(rows, ids, reach, targets, *args):
        seen.append((ids, reach.copy(), targets.gm))
        return real_sweep(rows, ids, reach, targets, *args)

    monkeypatch.setattr(pipelines, "_sweep", sweep)
    result, pairs = _run("knn_blobs", thread_count=threads)
    ((ids, keep, gm_t),) = seen
    assert np.array_equal(ids, np.arange(keep.shape[0])) and keep.shape[1] == gm_t.z
    kept = int((keep @ gm_t.sizes).sum())
    (s,) = result.per_iteration
    assert s.point_distances == kept
    assert s.pruned_pairs == pairs - kept > 0
    assert s.source_batches == np.unique(keep & (gm_t.sizes > 0), axis=0).shape[0] > 1


def _no_prune_join(monkeypatch, src, trg, k, threads=1, metric="Unweighted L2", weights=None):
    """A shadow-checked join of ``src`` against ``trg`` whose landmark cut
    must prune nothing (``_assert_no_prune``), each row filled once."""
    real_reduce, filled = pipelines._TopK.reduce, []

    def reducing(self, groups, cols, col_starts, ids, tile, err):
        filled.append(ids.copy())
        real_reduce(self, groups, cols, col_starts, ids, tile, err)

    monkeypatch.setattr(pipelines._TopK, "reduce", reducing)
    plan = make_plan("oneshot_two_set", src.n, trg.n, src.d, SelectSpec(k), None, metric)
    cfg = RunConfig(design=DESIGN, oracle_mode="shadow", thread_count=threads)
    result = run_plan(plan, src, trg, cfg, weights=weights)
    assert result.oracle_s > 0
    _assert_no_prune(result, src.n, trg.n)
    assert np.array_equal(np.sort(np.concatenate(filled)), np.arange(src.n))
    return result


def test_join_that_prunes_nothing_tiles_every_pair_once(monkeypatch):
    # uniform sets of different sizes, with more rows than one tile holds
    result = _no_prune_join(monkeypatch, _uniform(700, 6, seed=71), _uniform(450, 6, seed=72), 10)
    assert result.counters.tiles_executed > 1


def test_join_that_prunes_nothing_gives_one_result_on_two_threads(monkeypatch):
    # blocks of 8 rows; the join's one batch runs on one thread whatever
    # the thread count, so two threads give the results of one
    monkeypatch.setattr(pipelines._TopK, "TILE_CELLS", 8 * 300)
    src, trg = _uniform(300, 5, seed=73), _uniform(300, 5, seed=74)
    base = _no_prune_join(monkeypatch, src, trg, 10)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        other = _no_prune_join(monkeypatch, src, trg, 10, threads=2)
    finally:
        sys.setswitchinterval(interval)
    _assert_same_results(base, other)
    assert base.counters == other.counters
    assert base.per_iteration == other.per_iteration


@pytest.mark.parametrize("case", ["grid_ties", "k_n", "weighted_l1", "weighted_l2"])
def test_join_that_prunes_nothing_equals_the_oracle_on_hard_inputs(monkeypatch, case):
    k, metric, weights = 10, "Unweighted L2", None
    if case == "grid_ties":
        pts = _grid(300, 4, seed=75)
        # distances tie across the K boundary on many rows
        full = np.sort(brute_rows(pts.values, pts.values, L2), axis=1)
        assert np.count_nonzero(full[:, k - 1] == full[:, k]) > 100
    elif case == "k_n":
        pts, k = _grid(60, 3, seed=76), 60
    else:
        pts = Dataset.from_values(_uniform(300, 5, seed=77).values + 1e6)
        weights = np.random.default_rng(78).uniform(0.2, 2.0, size=5)
        metric = "Weighted L1" if case == "weighted_l1" else "Weighted L2"
    result = _no_prune_join(monkeypatch, pts, pts, k, metric=metric, weights=weights)
    assert result.outputs["topk"].ids.shape == (pts.n, k)
    if case == "grid_ties":
        # the tied rows are open and settled by the oracle over all targets
        assert result.counters.recomputed_distances > pts.n * k


@pytest.mark.parametrize("offset", [0.0, 1e6], ids=["offset_0", "offset_1e6"])
@pytest.mark.parametrize("case", ["blobs", "grid"])
@pytest.mark.parametrize("metric", list(METRIC_NAMES))
def test_join_cut_drops_only_groups_beyond_each_points_kth_distance(
    monkeypatch, metric, case, offset
):
    # for every (point, target group) pair the per-point cut drops, every
    # member of the group lies strictly farther, by direct differencing,
    # than the point's K-th distance; the grid's duplicate points make the
    # K-th distance tie on many rows
    k = 10
    real_sweep, seen = pipelines._sweep, []

    def sweep(rows, ids, reach, targets, *args):
        seen.append((reach.copy(), targets.gm))
        return real_sweep(rows, ids, reach, targets, *args)

    monkeypatch.setattr(pipelines, "_sweep", sweep)
    if case == "blobs":
        values = gaussian_mixture(300, 4, 6, seed=81, center_box=10.0).values
    else:
        values = _grid(300, 4, seed=82).values
    pts = Dataset.from_values(values + offset)
    weights = np.random.default_rng(83).uniform(0.2, 2.0, size=4) if "Weighted" in metric else None
    design = DesignConfig(n_src_grp=12, n_trg_grp=8)
    result = _exact_run("knn", pts, weights=weights, metric=metric, design=design, value=float(k))
    ((keep, gm),) = seen
    spec = MetricSpec.from_name(metric, weights)
    _, kth = oracles.knn_topk(pts.values, pts.values, spec, k)
    full = brute_rows(pts.values, pts.values, spec)
    dropped = ~keep[:, gm.group_of]
    assert np.all(full[dropped] > np.broadcast_to(kth[:, k - 1 : k], full.shape)[dropped])
    (s,) = result.per_iteration
    assert s.point_distances + s.pruned_pairs == pts.n * pts.n
    assert s.pruned_pairs == int(dropped.sum())
    if case == "blobs":
        assert s.pruned_pairs > 0


@pytest.mark.parametrize("cols", ["positions", "ascending", "permuted", "narrow"])
def test_topk_select_writes_the_k_plus_1_best_of_each_given_row(cols):
    # ``reduce`` fills the given rows with their K + 1 smallest values, in
    # ascending order, at targets that hold them, ties included, whatever
    # the order of the shared row of ids, the column positions included;
    # with fewer columns the last entries, and every other row, keep their
    # placeholders
    rng = np.random.default_rng(80)
    m, n, k = 25, 50, 6
    width = {"positions": n, "narrow": 4}.get(cols, 30)
    ids = {
        "positions": np.arange(n),
        "ascending": np.sort(rng.choice(n, width, replace=False)),
        "permuted": rng.permutation(n)[:width],
        "narrow": rng.permutation(n)[:width],
    }[cols]
    rows = np.array([3, 7, 8, 20])
    tile = rng.integers(0, 5, size=(rows.size, width)).astype(float)
    err = rng.uniform(0.0, 1e-12, size=rows.size)
    topk = pipelines._TopK(m, k, Dataset.from_values(np.zeros((n, 1))))
    topk.reduce(groups=None, cols=ids, col_starts=None, ids=rows, tile=tile, err=err)

    for r, i in enumerate(rows.tolist()):
        _assert_k_plus_1(topk.top_f[i], topk.top_i[i], tile[r], ids, n)
    others = np.setdiff1d(np.arange(m), rows)
    assert np.all(topk.top_f[others] == np.inf) and np.all(topk.top_i[others] == n)
    want_err = np.zeros(m)
    want_err[rows] = err
    assert np.array_equal(topk.err, want_err)


# -- the force rule -------------------------------------------------------------


def _add_at_force(pos, nbr_i, nbr_j, softening):
    """The force rule's reference: an unbuffered ``np.add.at`` over ordered
    pairs, in pair order."""
    acc = np.zeros_like(pos)
    diff = pos[nbr_j] - pos[nbr_i]
    r2 = np.add.reduce(diff * diff, axis=1) + softening * softening
    np.add.at(acc, nbr_i, diff * (r2**-1.5)[:, None])
    return acc


def _squared_sums(pos, i, j):
    """The squared Euclidean distances of the pairs (i, j) as the Verlet
    list pass sums them."""
    x = pos[i] - pos[j]
    return np.add.reduce(x * x, axis=1)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 24])
def test_force_rule_equals_an_add_at_reference(d):
    # the rule takes each unordered pair once; the reference adds both
    # orientations of every pair, sorted by (i, j)
    rng = np.random.default_rng(23 + d)
    n = 60
    pos = rng.normal(size=(n, d)) * 3.0
    # (i, j)-sorted distinct pairs i < j, most points in many; point n - 1 in none
    i, j = rng.integers(0, n - 1, size=900), rng.integers(0, n - 1, size=900)
    keep = i != j
    i, j = np.minimum(i, j)[keep], np.maximum(i, j)[keep]
    i, j = np.divmod(np.unique(i * n + j), n)
    assert np.any(np.diff(i) == 0) and not np.any(j == n - 1)
    for pair_i, pair_j in ((i, j), (i[:0], j[:0])):
        got = default_force_rule(pos, pair_i, pair_j, _squared_sums(pos, pair_i, pair_j), 1e-2)
        both_i, both_j = np.divmod(np.sort(np.concatenate([pair_i * n + pair_j, pair_j * n + pair_i])), n)
        want = _add_at_force(pos, both_i, both_j, 1e-2)
        assert got.shape == pos.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.all(default_force_rule(pos, i, j, _squared_sums(pos, i, j), 1e-2)[n - 1] == 0.0)


@pytest.mark.parametrize(
    "metric, d",
    [("Unweighted L2", 3), ("Unweighted L2", 9), ("Weighted L1", 4), ("Weighted L2", 4)]
    + [(metric, d) for d in (8, 130) for metric in METRIC_NAMES],
    ids=["l2_d3", "l2_d9", "weighted_l1", "weighted_l2"]
    + [f"{m.lower().replace(' ', '_')}_d{d}" for d in (8, 130) for m in METRIC_NAMES],
)
def test_nbody_trajectories_equal_an_independent_integration(monkeypatch, metric, d):
    # Euler steps over the oracle's ordered pairs with the add.at force:
    # the force is Euclidean under every metric, so the squared sums the
    # list pass hands it must be the ones the reference computes itself.
    # A last-bit change of a force is mostly lost in a step of dt², so the
    # forces are compared too. The list pass and the force rule sum their
    # terms coordinate-major: from d = 8 numpy's row sums are pairwise, and
    # from d = 129 halved, which ``column_sum`` must follow in a real run.
    forces, rule = [], pipelines.default_force_rule

    def recording(*args):
        forces.append(rule(*args))
        return forces[-1]

    monkeypatch.setattr(pipelines, "default_force_rule", recording)
    # the oracles' broadcast costs n² d, so high d runs on fewer points
    pts = gaussian_mixture(400 if d < 100 else 160, d, 4, seed=11, center_box=3.0)
    weights = np.random.default_rng(12).uniform(0.2, 2.0, size=d) if "Weighted" in metric else None
    spec = MetricSpec.from_name(metric, weights)
    # 1 + d/5, or at least 1% of the pairs (L1 from d = 8 has none there)
    pairs = np.triu_indices(pts.n, 1)
    spread = rowwise_distance(pts.values[pairs[0]], pts.values[pairs[1]], spec)
    radius, steps = max(1.0 + 0.2 * d, float(np.quantile(spread, 0.01))), 5
    select = SelectSpec(radius)
    plan = make_plan("iterative_self_set", pts.n, pts.n, d, select, steps, metric)
    cfg = RunConfig(design=DESIGN, oracle_mode="shadow")
    result = run_plan(plan, pts, None, cfg, weights=weights)
    assert result.oracle_s > 0 and _rebuilds(result) < steps  # a list step at least
    assert len(forces) == steps

    pos, vel = pts.values.copy(), np.zeros_like(pts.values)
    want = [pos]
    for _ in range(steps):
        lists = oracles.radius_neighbors(pos, spec, radius)
        nbr_i = np.repeat(np.arange(pts.n), [lst.size for lst in lists])
        assert nbr_i.size > 0
        acc = _add_at_force(pos, nbr_i, np.concatenate(lists), cfg.softening)
        assert np.array_equal(forces[len(want) - 1].view(np.int64), acc.view(np.int64))
        vel = vel + acc * cfg.dt
        pos = pos + vel * cfg.dt
        want.append(pos)
    got = result.outputs["trajectories"]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


@pytest.mark.parametrize("pairs", [0, 1, 500, 5000])
def test_verlet_list_orders_its_pairs_by_j_then_i(pairs):
    # the sweep's pairs come in any order and orientation; the list keeps
    # them as i < j sorted by (i, j), and ``below`` is the stable argsort
    # of j, which orders them by (j, i)
    pts = gaussian_mixture(300, 3, 3, seed=19, center_box=3.0)
    n = pts.n
    within = pipelines._Radius(build_groups(pts, 8, 0, L2, CounterSet()), 1.0, 0.1, L2)
    rng = np.random.default_rng(pairs)
    up_i, up_j = np.triu_indices(n, 1)
    pick = rng.choice(up_i.size, size=pairs, replace=False)
    flip = rng.random(pairs) < 0.5
    i, j = np.where(flip, up_j[pick], up_i[pick]), np.where(flip, up_i[pick], up_j[pick])
    parts = np.array_split(np.arange(pairs), 4)
    within.pairs = [[(i[p], j[p]) for p in parts[:2]], [], [(i[p], j[p]) for p in parts[2:]]]
    within.store_list()
    li, lj = within.li.astype(np.int64), within.lj.astype(np.int64)
    assert np.array_equal(li * n + lj, np.sort(up_i[pick] * n + up_j[pick]))
    assert within.below.dtype == np.int32
    assert np.array_equal(within.below, np.argsort(lj, kind="stable"))


# -- the landmark seed of the iterative pipelines -----------------------------


def test_sample_first_iterations_do_not_tile_every_pair():
    # n-body starts from the landmark cut, not a full sweep; k-means starts
    # from the landmark bounds of its centre groups, paid for as bound
    # computations (each point's distance to each landmark), without
    # grouping its points, and its per-point bounds prune from iteration 1
    nbody, pairs = _run("nbody")
    assert nbody.per_iteration[0].point_distances < pairs / 2
    kmeans, pairs = _run("kmeans")
    first, *later = kmeans.per_iteration
    assert first.point_distances < pairs and len(kmeans.layout.group_slices) == DESIGN.n_trg_grp
    assert first.bound_computations >= 300 * DESIGN.n_trg_grp
    for s in kmeans.per_iteration:
        assert s.point_distances + s.pruned_pairs + s.all_inside_pairs + s.reused_pairs == pairs
    assert kmeans.counters.grouping_distances == 6 * 12 * DESIGN.n_trg_grp  # the centres' alone
    assert later and all(s.pruned_pairs > 0 for s in later)


@pytest.mark.parametrize(
    "variant",
    [{}, {"reversed_packing": True}, {"thread_count": 2}],
    ids=["layout_on", "reversed_packing", "threads2"],
)
def test_nbody_pairs_pruned_at_step_one_that_come_within_the_radius_later(
    monkeypatch, variant
):
    # group pairs the landmark bounds prune at step 1 hold neighbor pairs
    # later; their bounds, decayed by drift, must let those through
    cuts = _record_cuts(monkeypatch)
    variant = _reversed_packing(monkeypatch, variant)
    pts, result = _strong_pull(**variant)
    assert result.oracle_s > 0 and result.iterations == 4
    keep, gm = cuts[0]
    pruned = ~keep[np.ix_(gm.group_of, gm.group_of)]
    assert pruned.any()
    later = result.outputs["neighbors"][1:]
    assert sum(int(pruned[i, lst].sum()) for step in later for i, lst in enumerate(step)) > 0
    for s in result.per_iteration:
        assert s.point_distances + s.pruned_pairs + s.all_inside_pairs + s.reused_pairs == pts.n**2


# -- the n-body Verlet list ------------------------------------------------------


@pytest.mark.parametrize("case", ["sample", "strong_pull"])
def test_nbody_without_a_skin_rebuilds_every_step_with_the_same_results(monkeypatch, case):
    # with no skin the list never outlives its step, so every step sweeps;
    # the skin may change the work, never a neighbor list or a trajectory
    def run():
        return _run("nbody")[0] if case == "sample" else _strong_pull()[1]

    skinned = run()
    monkeypatch.setattr(pipelines, "_SKIN_FRACTION", 0.0)
    bare = run()
    assert _rebuilds(bare) == bare.iterations > 1
    if case == "sample":
        assert _rebuilds(skinned) < skinned.iterations  # the skin saves sweeps here
    for key in ("neighbors", "trajectories"):
        got, want = list(_flat(bare.outputs[key])), list(_flat(skinned.outputs[key]))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), key


def test_nbody_strong_pull_rebuilds_after_step_one():
    # points thrown across the blobs outrun the skin, so the list is
    # rebuilt after step 1, and each rebuilt list passes the shadow check
    _, result = _strong_pull()
    assert result.oracle_s > 0
    assert result.per_iteration[0].source_batches > 0
    assert any(s.source_batches > 0 for s in result.per_iteration[1:])


@pytest.mark.parametrize("case", ["strong_pull", "duplicates"])
def test_nbody_tiles_hold_one_groups_rows(monkeypatch, case):
    # every rebuild sweeps each group as a batch of its own, so a tile's
    # rows are one group's; ``_Radius.reduce`` folds each tile into that
    # group's bounds, which stay symmetric
    seen = _record_symmetry(monkeypatch)
    real_reduce, real_sweep = pipelines._Radius.reduce, pipelines._sweep
    tile_groups, sweeps = [], []

    def reducing(self, groups, cols, col_starts, ids, tile, err):
        tile_groups.append(np.unique(self.gm.group_of[ids]).size)
        real_reduce(self, groups, cols, col_starts, ids, tile, err)

    def sweep(rows, ids, reach, targets, *args):
        sweeps.append((ids, reach.copy()))
        return real_sweep(rows, ids, reach, targets, *args)

    monkeypatch.setattr(pipelines._Radius, "reduce", reducing)
    monkeypatch.setattr(pipelines, "_sweep", sweep)
    if case == "strong_pull":
        _, result = _strong_pull()
        assert _rebuilds(result) > 1
    else:
        # 9 distinct points in 16 groups, pulled together step after step:
        # some groups are empty
        pts = _grid(200, 2, seed=0)
        radius = SelectSpec(1.0)
        plan = make_plan("iterative_self_set", pts.n, pts.n, 2, radius, 6)
        design = DesignConfig(n_src_grp=16, n_trg_grp=4)
        cfg = RunConfig(design=design, oracle_mode="shadow", dt=0.05, softening=1e-3)
        result = run_plan(plan, pts, None, cfg)
        assert _rebuilds(result) > 1
        assert (seen[0].gm.sizes == 0).any()
    assert result.oracle_s > 0 and len(seen) == len(sweeps) == _rebuilds(result)
    gm = seen[0].gm
    live = gm.sizes > 0
    for ids, reach in sweeps:
        # each point's row is its group's, and no two non-empty groups
        # share a row, so each batch is one non-empty group
        assert np.array_equal(ids, np.arange(gm.n))
        rows = reach[[m[0] for m in _members(gm) if m.size]] & live
        assert all(np.array_equal(reach[m], np.broadcast_to(reach[m[0]], reach[m].shape))
                   for m in _members(gm) if m.size)
        assert np.unique(rows, axis=0).shape[0] == rows.shape[0]
    counts = [s.source_batches for s in result.per_iteration if s.source_batches]
    assert counts == [int(live.sum())] * len(seen)
    assert tile_groups and set(tile_groups) == {1}


def _verlet(radius: float, skin: float) -> pipelines._Radius:
    pts = gaussian_mixture(40, 3, 2, seed=17, center_box=3.0)
    gm = build_groups(pts, 4, 0, L2, CounterSet())
    return pipelines._Radius(gm, radius, skin, L2)


def test_nbody_list_holds_while_the_two_largest_displacements_fit_the_skin():
    # the list holds iff the cut less the two largest displacements, as
    # gti.lower_bound widens them, stays above the radius
    radius, skin = 1.5, 1.5 / 32
    within = _verlet(radius, skin)
    slack = within.slack
    assert 0 < slack < 1e-12

    def holds(first, second):
        within.disp = np.zeros(within.gm.n)
        within.disp[[7, 23]] = first, second
        within.disp[30] = second / 2  # a third, smaller, counts for nothing
        return within.holds()

    assert holds(0.0, 0.0)
    # just below the skin, by more than the slack's widening of the cut
    # and the displacements: holds
    below = skin - 8 * slack * (radius + skin)
    assert holds(below / 2, below / 2) and holds(below, 0.0)
    # below the skin, but not once the slack widens them: rebuild
    near = skin - slack * radius
    assert near < skin and not holds(near / 2, near / 2) and not holds(near, 0.0)
    assert not holds(skin / 2, skin / 2)
    # moving adds each step's movement, rounded up by the slack
    within.disp = np.zeros(within.gm.n)
    step = np.full(within.gm.n, skin / 8)
    for _ in range(3):
        within.moved(step)
    assert np.all(within.disp > 3 * skin / 8) and within.holds()
    within.moved(step)  # two points at skin / 2 each: the pair may now be within
    assert not within.holds()
    # with no skin a list never holds, even for points that did not move
    assert not _verlet(radius, 0.0).holds()


def test_nbody_list_holds_the_pairs_at_its_cut(monkeypatch):
    # with radius 1 and a skin of 1 the cut is 2, an exact distance on the
    # {0, 1, 2}^4 grid: the first rebuild must list every pair within it,
    # those at exactly 2 included, though their fast values may round
    # either way
    store, seen = pipelines._Radius.store_list, []

    def storing(self):
        store(self)
        seen.append((self.li.copy(), self.lj.copy()))

    monkeypatch.setattr(pipelines._Radius, "store_list", storing)
    monkeypatch.setattr(pipelines, "_SKIN_FRACTION", 1.0)
    pts = _grid(300, 4, seed=5)
    _exact_run("nbody", pts, value=1.0)
    full = brute_rows(pts.values, pts.values, L2)
    li, lj = seen[0]
    listed = np.zeros(full.shape, dtype=bool)
    listed[li, lj] = True
    within = np.triu(full <= 2.0, 1)
    assert np.any(within & (full == 2.0))
    assert not np.any(within & ~listed)


@pytest.mark.parametrize(
    "variant",
    [{}, {"thread_count": 2}, {"reversed_packing": True}],
    ids=["threads1", "threads2", "reversed_packing"],
)
def test_nbody_list_steps_conserve_pairs(monkeypatch, variant):
    # a list step evaluates each listed pair once, mirrors it, and prunes
    # every other ordered pair, the diagonal included
    variant = _reversed_packing(monkeypatch, variant)
    result, pairs = _run("nbody", **variant)
    steps = result.per_iteration
    listed = [s for s in steps if s.source_batches == 0]
    assert steps[0].source_batches > 0 and listed
    for s in steps:
        assert s.point_distances + s.pruned_pairs + s.all_inside_pairs + s.reused_pairs == pairs
    for s in listed:
        assert s.point_distances == s.reused_pairs > 0 and s.all_inside_pairs == 0
        lists = result.outputs["neighbors"][s.iteration - 1]
        assert s.point_distances >= sum(lst.size for lst in lists) // 2


@pytest.mark.parametrize("name", ["sample", "strong_pull"])
def test_nbody_steps_are_int32_csrs_equal_to_the_oracle(name):
    # each step's lists are one CSR: offsets rising from 0 to ids.size,
    # int32 ids ascending within each point, equal to the oracle's CSR at
    # that step's positions
    if name == "sample":
        result, _ = _run("nbody", oracle_mode="off")
        radius = 1.5
    else:
        _, result = _strong_pull()
        radius = 0.6
    n = result.outputs["trajectories"][0].shape[0]
    steps = zip(result.outputs["neighbors"], result.outputs["trajectories"])
    for lists, pos in steps:
        assert isinstance(lists, NeighborLists) and len(lists) == n
        assert lists.ids.dtype == np.int32
        offsets = lists.offsets
        assert offsets[0] == 0 and offsets[-1] == lists.ids.size
        assert np.all(np.diff(offsets) >= 0)
        # an id may fall only where a point's list starts
        assert np.isin(np.flatnonzero(np.diff(lists.ids) <= 0) + 1, offsets).all()
        want = oracles.radius_neighbors(pos, L2, radius)
        assert np.array_equal(offsets, want.offsets) and np.array_equal(lists.ids, want.ids)
        assert want.ids.size > 0


def test_nbody_shadow_check_names_the_point(monkeypatch):
    # an oracle whose CSR drops the first neighbor of point 5 at step 2
    # must be caught on that step and point, with both lists
    real, calls = pipelines.radius_neighbors, []

    def dropping(*args, **kwargs):
        want = real(*args, **kwargs)
        calls.append(None)  # one call per step
        if len(calls) == 2:
            offsets = want.offsets.copy()
            offsets[6:] -= 1
            want = NeighborLists(offsets=offsets, ids=np.delete(want.ids, want.offsets[5]))
        return want

    monkeypatch.setattr(pipelines, "radius_neighbors", dropping)
    with pytest.raises(OracleMismatchError) as info:
        _run("nbody")
    detail = info.value.detail
    assert (detail["step"], detail["point"]) == (2, 5)
    assert len(detail["got"]) > 0 and detail["want"] == detail["got"][1:]


def test_nbody_shadow_check_names_the_point_whose_id_differs(monkeypatch):
    # every count agrees, but the oracle's CSR names point 9 itself as its
    # own last neighbor at step 3
    real, calls = pipelines.radius_neighbors, []

    def renaming(*args, **kwargs):
        want = real(*args, **kwargs)
        calls.append(None)  # one call per step
        if len(calls) == 3:
            ids = want.ids.copy()
            ids[want.offsets[10] - 1] = 9
            want = NeighborLists(offsets=want.offsets, ids=ids)
        return want

    monkeypatch.setattr(pipelines, "radius_neighbors", renaming)
    with pytest.raises(OracleMismatchError) as info:
        _run("nbody")
    detail = info.value.detail
    assert (detail["step"], detail["point"]) == (3, 9)
    assert detail["want"] == detail["got"][:-1] + [9] != detail["got"]


@pytest.mark.parametrize(
    "variant",
    [{}, {"reversed_packing": True}, {"thread_count": 2}],
    ids=["layout_on", "reversed_packing", "threads2"],
)
def test_kmeans_first_cut_with_duplicated_centroids_and_an_empty_target_group(
    monkeypatch, variant
):
    # three distinct centroids, each twice, in four target groups: equal
    # centroids share their nearest landmark, so a target group is empty,
    # and every point ties between two clusters; iteration 1's tile and
    # the bounds it seeds must still keep each point's (distance, id)
    # nearest, and later iterations must prune
    pts = gaussian_mixture(300, 4, 3, seed=31, center_box=3.0)
    centroids = np.repeat(np.random.default_rng(32).normal(size=(3, 4)) * 3.0, 2, axis=0)
    design = DesignConfig(n_src_grp=10, n_trg_grp=4)
    trg_gm = build_groups(Dataset.from_values(centroids), 4, RunConfig().seed + 2, L2)
    assert np.any(trg_gm.sizes == 0)
    variant = _reversed_packing(monkeypatch, variant)
    cfg = RunConfig(design=design, oracle_mode="shadow", **variant)
    for steps in (1, 5):
        plan = make_plan("iterative_two_set", pts.n, 6, 4, SelectSpec(1.0), steps)
        result = run_plan(plan, pts, Dataset.from_values(centroids), cfg)
        assert result.oracle_s > 0
        assert all(s.pruned_pairs > 0 for s in result.per_iteration[1:])
        assert result.iterations > 1 or steps == 1
        assert np.all(result.outputs["assignments"] >= 0)
        if steps == 1:
            # the second copy of each centroid loses every tie
            assert set(result.outputs["assignments"].tolist()) <= {0, 2, 4}


# -- the Yinyang bounds of k-means ----------------------------------------------

METRICS = ["Unweighted L1", "Unweighted L2"]


def _watch_bounds(monkeypatch) -> list:
    """Patch ``_Yinyang.first`` and ``update`` to check the bounds after
    every iteration against ``brute_rows``: ``ub[i]`` at least point i's
    direct distance to its centre, ``lb[g, i]`` at most that to every other
    centre of group g. Returns each iteration's assignments and the
    centres' groups."""
    seen = []

    def checked(method):
        def run(self, centroids, *args):
            calls = method(self, centroids, *args)
            full = brute_rows(self.points, centroids, self.metric)
            rows = np.arange(full.shape[0])
            assert np.all(self.ub >= full[rows, self.assign])
            full[rows, self.assign] = np.inf
            for g, members in enumerate(_members(self.gm)):
                assert np.all(self.lb[g] <= full[:, members].min(axis=1, initial=np.inf)), g
            seen.append((self.assign.copy(), self.gm.group_of))
            return calls

        return run

    for name in ("first", "update"):
        monkeypatch.setattr(pipelines._Yinyang, name, checked(getattr(pipelines._Yinyang, name)))
    return seen


def _kmeans(pts: Dataset, init: np.ndarray, metric: str, steps: int = 12, groups: int = 4):
    plan = make_plan(
        "iterative_two_set", pts.n, init.shape[0], pts.d, SelectSpec(1.0),
        steps, metric,
    )
    design = DesignConfig(n_src_grp=8, n_trg_grp=groups)
    cfg = RunConfig(design=design, oracle_mode="shadow")
    result = run_plan(plan, pts, Dataset.from_values(init), cfg)
    assert result.oracle_s > 0
    k = init.shape[0]
    for s in result.per_iteration:
        assert s.point_distances + s.pruned_pairs + s.reused_pairs == pts.n * k, s
        assert s.all_inside_pairs == 0
    assert len(result.layout.group_slices) == min(groups, k)  # the centres' groups
    return result


_BOUND_CASES = {
    "blobs": lambda: gaussian_mixture(400, 6, 5, seed=51, center_box=8.0),
    "far": lambda: Dataset.from_values(
        gaussian_mixture(400, 6, 5, seed=52, center_box=8.0).values + 1e6
    ),
    "grid": lambda: _grid(300, 4, seed=53),
}


@pytest.mark.parametrize("case", list(_BOUND_CASES))
@pytest.mark.parametrize("metric", METRICS, ids=["l1", "l2"])
def test_kmeans_bounds_hold_after_every_iteration(monkeypatch, metric, case):
    seen = _watch_bounds(monkeypatch)
    pts = _BOUND_CASES[case]()
    init = pts.values[np.random.default_rng(54).choice(pts.n, 16, replace=False)]
    result = _kmeans(pts, init, metric)
    assert len(seen) == result.iterations > 2
    assert sum(s.pruned_pairs for s in result.per_iteration) > 0


@pytest.mark.parametrize("metric", METRICS, ids=["l1", "l2"])
def test_kmeans_centres_that_jump_far_open_every_row(monkeypatch, metric):
    # the centres start far off the points' subspace, at 1000 along an
    # axis the points do not use: iteration 1 still splits the points by
    # their nearest start, and iteration 2 moves every centre about 1000,
    # so every point's ub outgrows its lb and every row is tightened
    seen = _watch_bounds(monkeypatch)
    pts = gaussian_mixture(400, 4, 4, seed=41, center_box=3.0).values
    pts = Dataset.from_values(np.column_stack([pts, np.zeros(len(pts))]))
    init = pts.values[np.sort(np.random.default_rng(3).choice(pts.n, 16, replace=False))]
    init[:, -1] = 1000.0
    result = _kmeans(pts, init, metric)
    assert np.unique(seen[0][0]).size == 16  # every centre won points
    assert result.per_iteration[1].bound_computations == 16 + pts.n
    assert result.iterations > 2


@pytest.mark.parametrize("metric", METRICS, ids=["l1", "l2"])
def test_kmeans_points_that_cross_between_centre_groups(monkeypatch, metric):
    # all centres start in one corner of the blobs, so as they spread,
    # points leave centres of one group for centres of another; a centre
    # left behind must rejoin the bound of its group
    seen = _watch_bounds(monkeypatch)
    pts = gaussian_mixture(400, 3, 6, seed=61, center_box=10.0)
    corner = np.argsort(pts.values.sum(axis=1))[:12]
    result = _kmeans(pts, pts.values[np.sort(corner)], metric, steps=20)
    crossed = 0
    for (before, group_of), (after, _) in zip(seen, seen[1:]):
        crossed += np.count_nonzero(group_of[before] != group_of[after])
    assert crossed > 0 and result.iterations > 3


def _record_tiles(monkeypatch) -> list:
    """Patch ``_Yinyang`` to note, per call of ``first`` or ``update``, the
    centre groups and rows of each tile its ``reduce`` folds, with the
    centres' group model."""
    seen = []

    def starting(method):
        def run(self, *args):
            seen.append((self.gm, []))
            return method(self, *args)

        return run

    real_reduce = pipelines._Yinyang.reduce

    def reduce(self, groups, cols, col_starts, ids, tile, err):
        seen[-1][1].append((groups.copy(), ids.copy()))
        return real_reduce(self, groups, cols, col_starts, ids, tile, err)

    for name in ("first", "update"):
        monkeypatch.setattr(pipelines._Yinyang, name, starting(getattr(pipelines._Yinyang, name)))
    monkeypatch.setattr(pipelines._Yinyang, "reduce", reduce)
    return seen


def _tile_case(case: str):
    """(result, n, k) of one k-means run of ``case``."""
    if case == "sample":  # centroids drawn by the run
        result, _ = _run("kmeans")
        return result, 300, 12
    if case == "duplicated":  # two copies of each centroid, an empty group
        pts = gaussian_mixture(300, 4, 3, seed=31, center_box=3.0)
        init = np.repeat(np.random.default_rng(32).normal(size=(3, 4)) * 3.0, 2, axis=0)
        plan = make_plan("iterative_two_set", pts.n, 6, 4, SelectSpec(1.0), 5)
        cfg = RunConfig(design=DesignConfig(n_src_grp=10, n_trg_grp=4), oracle_mode="shadow")
        return run_kmeans(plan, pts, cfg, initial_clusters=init), pts.n, 6
    name, metric = case.split("-")
    pts = _BOUND_CASES[name]()
    init = pts.values[np.random.default_rng(54).choice(pts.n, 16, replace=False)]
    return _kmeans(pts, init, {"l1": METRICS[0], "l2": METRICS[1]}[metric]), pts.n, 16


@pytest.mark.parametrize(
    "case", ["far-l1", "far-l2", "grid-l1", "grid-l2", "blobs-l1", "duplicated", "sample"]
)
def test_kmeans_tiles_no_row_against_a_centre_group_twice_in_an_iteration(monkeypatch, case):
    # iteration 1 tiles each row against its nearest landmark group before
    # the group search, which must leave that group out for the row; every
    # pair the tiles leave is pruned, so each iteration accounts for n * k
    seen = _record_tiles(monkeypatch)
    result, n, k = _tile_case(case)
    assert result.oracle_s > 0 and result.iterations > 1
    if case == "duplicated":
        assert np.any(seen[0][0].sizes == 0)
    first = result.per_iteration[0]
    assert first.point_distances + first.pruned_pairs + first.reused_pairs == n * k
    assert first.bound_computations >= n * seen[0][0].z
    # an iteration in which no centre moved makes no call (and no tile)
    tiling = [s for s in result.per_iteration if s.reused_pairs == 0]
    assert len(seen) == len(tiling)
    for s, (gm, tiles) in zip(tiling, seen):
        keys = np.concatenate([(groups[:, None] * n + rows).ravel() for groups, rows in tiles])
        assert np.unique(keys).size == keys.size, s.iteration
        cells = sum(rows.size * gm.sizes[groups].sum() for groups, rows in tiles)
        assert cells == s.point_distances


@pytest.mark.parametrize("case", ["far-l1", "grid-l2", "duplicated", "sample"])
def test_kmeans_search_sweeps_each_reach_pattern_once(monkeypatch, case):
    # at entry to a group search, each open row reaches the non-empty
    # groups g whose lb[g] is at most its ub, less iteration 1's nearest
    # group, which iteration 1 sweeps first, each row against that group
    # alone; the rows of each distinct reach pattern are swept once, in
    # consecutive tiles against exactly its groups, all but the last of
    # them full row blocks, and no other row is
    searches, near, real_sweep = [], [], pipelines._sweep
    real_reduce = pipelines._Yinyang.reduce

    def sweep(rows, ids, reach, targets, self, *args):
        live = (self.gm.sizes > 0)[:, None]
        if not self.exact:  # iteration 1's nearest-group pass
            full = reach.T & live
            assert np.all(full.sum(axis=0) == 1)
            near.append(full.argmax(axis=0))
        else:
            full = (self.lb[:, ids] <= self.ub[ids]) & live
            if len(searches) == 1:  # iteration 1's search skips that group
                full[near[0], np.arange(ids.size)] = False
        assert np.array_equal(reach.T & live, full)
        want = {}
        for i, row in enumerate(ids.tolist()):
            groups = tuple(np.flatnonzero(full[:, i]).tolist())
            if groups:
                want.setdefault(groups, []).append(row)
        searches.append(([], want))
        batches = real_sweep(rows, ids, reach, targets, self, *args)
        searches[-1] += (batches,)
        return batches

    def reduce(self, groups, cols, col_starts, ids, tile, err):
        if searches and len(searches[-1]) == 2:  # inside a search
            searches[-1][0].append((tuple(groups.tolist()), ids.tolist(), cols.size))
        return real_reduce(self, groups, cols, col_starts, ids, tile, err)

    monkeypatch.setattr(pipelines, "_sweep", sweep)
    monkeypatch.setattr(pipelines._Yinyang, "reduce", reduce)
    result, _, _ = _tile_case(case)
    assert len(near) == 1
    assert len(searches) == 1 + sum(s.reused_pairs == 0 for s in result.per_iteration)
    assert any(len(want) > 1 for _, want, _ in searches)
    for tiles, want, batches in searches:
        runs = [
            (groups, list(run)) for groups, run in itertools.groupby(tiles, key=lambda t: t[0])
        ]
        assert len(runs) == len({g for g, _ in runs}) == len(want) == batches
        assert {g: [r for _, rows, _ in run for r in rows] for g, run in runs} == want
        for _, run in runs:
            step = max(1, pipelines._Yinyang.TILE_CELLS // run[0][2])
            assert all(len(rows) == step for _, rows, _ in run[:-1]) and len(run[-1][1]) <= step


def _blocks(rows: int, cols: int, cells: int) -> list[tuple[int, int]]:
    """The tile shapes of ``rows`` rows against ``cols`` columns in blocks
    of ``cells`` cells at most."""
    step = max(1, cells // cols)
    return [(min(step, rows - i), cols) for i in range(0, rows, step)]


# (points, initial centres, centre groups, tile budget): each budget makes
# iteration 1's last landmark block and last centre-to-centre block ragged
_RAGGED_CASES = {
    # two copies of each of 3 centres in 4 groups leave a group empty;
    # blocks of 8 and 4 rows against the landmarks, 5 and 1 between centres
    "duplicated": lambda: (
        gaussian_mixture(300, 4, 3, seed=31, center_box=3.0),
        np.repeat(np.random.default_rng(32).normal(size=(3, 4)) * 3.0, 2, axis=0),
        4,
        32,
    ),
    # 16 distinct centres: blocks of 12 and 4 rows, and of 3 and 1
    "blobs": lambda: (
        _BOUND_CASES["blobs"](),
        _BOUND_CASES["blobs"]().values[np.random.default_rng(54).choice(400, 16, replace=False)],
        4,
        48,
    ),
}


@pytest.mark.parametrize("case", list(_RAGGED_CASES))
@pytest.mark.parametrize("metric", METRICS, ids=["l1", "l2"])
def test_kmeans_ragged_landmark_and_gap_blocks_equal_the_oracle(monkeypatch, metric, case):
    # a tiny ``_Yinyang.TILE_CELLS`` splits iteration 1's landmark pass and
    # its centre-to-centre pass into row blocks, the last of each ragged;
    # the bounds hold after every iteration, and the run equals the oracle
    # and the run on the default budget
    pts, init, groups, cells = _RAGGED_CASES[case]()
    k = init.shape[0]
    plan = make_plan("iterative_two_set", pts.n, k, pts.d, SelectSpec(1.0), 5, metric)
    cfg = RunConfig(design=DesignConfig(n_src_grp=10, n_trg_grp=groups), oracle_mode="shadow")
    spec = MetricSpec(kind=metric.split()[-1])
    sizes = build_groups(Dataset.from_values(init), groups, cfg.seed + 2, spec).sizes
    assert np.any(sizes == 0) == (case == "duplicated")
    want = run_kmeans(plan, pts, cfg, initial_clusters=init)

    tiles, real_engine, real_tile = [], pipelines._tile_rows, pipelines.tile_distances

    def engine(src, at, ids, trg, reduce, *args):
        tiles.append((reduce.__name__, []))
        return real_engine(src, at, ids, trg, reduce, *args)

    def tile(a, b, *args):
        tiles[-1][1].append((a.shape[0], b.shape[0]))
        return real_tile(a, b, *args)

    seen = _watch_bounds(monkeypatch)
    monkeypatch.setattr(pipelines, "_tile_rows", engine)
    monkeypatch.setattr(pipelines, "tile_distances", tile)
    monkeypatch.setattr(pipelines._Yinyang, "TILE_CELLS", cells)
    got = run_kmeans(plan, pts, cfg, initial_clusters=init)
    assert got.oracle_s > 0 and len(seen) == got.iterations > 1
    passes = {name: shapes for name, shapes in tiles if name != "reduce"}
    assert passes == {"seed": _blocks(pts.n, groups, cells), "fold": _blocks(k, k, cells)}
    assert all(shapes[-1][0] < shapes[0][0] for shapes in passes.values())
    for key in ("assignments", "centroids"):
        assert got.outputs[key].tobytes() == want.outputs[key].tobytes()


def test_kmeans_tie_at_distance_zero_reaches_the_lower_centre(monkeypatch):
    # centre 0 at (1, -1) wins a and b on ties (L1 distance 2 to both
    # centres), centre 1 holds p on the spot; both then move onto p, so in
    # iteration 2 p's ub and its bound to centre 0 are both exactly 0, and
    # only the non-strict tests open p and let the lower centre take it.
    # (In L2 a centre cannot land on a point another centre holds in one
    # step: its members' mean stays on its side of the bisector.)
    seen = _watch_bounds(monkeypatch)
    pts = Dataset.from_values(np.array([[-1.0, -1.0], [1.0, 1.0], [0.0, 0.0]]))
    result = _kmeans(pts, np.array([[1.0, -1.0], [0.0, 0.0]]), "Unweighted L1", groups=2)
    assert [a.tolist() for a, _ in seen] == [[0, 0, 1], [0, 0, 0]]
    # no centre moves in iteration 3, which keeps every assignment
    assert result.iterations == 3 and result.per_iteration[2].reused_pairs == 6
