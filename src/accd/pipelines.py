"""End-to-end pipeline execution.

Three pipeline shapes are supported: iterative two-set (cluster-style),
one-shot two-set (top-K join), and iterative self-set (radius neighbors
with movement). Each run wires group construction, bound filtering and
layout packing around one tile engine, ``_sweep``, tallies every avoided
or executed point-pair, and can shadow a brute-force oracle that must
agree exactly.

For each source batch the engine visits the batch's candidate target
groups in (lower bound, group id) order. It keeps the rows whose
per-point bound still reaches that group's lower bound, counts the other
rows' pairs as pruned, computes one tile through the kernel and hands it
to the pipeline's reducer:

* ``_Nearest`` (iterative two-set) keeps the best (distance, id) per
  point and the per-group-pair tile minimum that reseeds the trace
  bounds; the per-point bound is last iteration's best distance plus the
  drift of its target.
* ``_TopK`` (one-shot two-set) keeps the running K + 1 best per point;
  the per-point bound is the current K-th distance plus its error bound.
  Only tile entries at most a row's running (K + 1)-th value can enter,
  so rows without one are skipped and the others merge just their
  survivors: one sort by value, and a (value, id) re-sort only of rows
  where equal values break the id order.
* ``_Radius`` (iterative self-set) has no per-point bound. Before the
  sweep it takes every member pair of the all-inside group pairs without
  a tile; during it, it keeps each tile's neighbor pairs and resets the
  bounds of each (source group, target group) pair the tile covers; after
  it, it assembles the neighbor lists.

Numerical discipline. Kernel tiles are fast, not the oracles' arithmetic,
and BLAS may round one pair differently in tiles of different shapes, so
each tile row carries a bound on its error (``kernel.tile_distances``).
Reducers decide on fast values only where that bound settles a decision
and recompute what it leaves open, and every reported distance, by direct
differencing (``metrics.rowwise_distance``, the oracles' arithmetic).
Every pruning bound carries the rounding slack of ``gti``. Outputs
therefore equal the oracles' bitwise, with layout on or off and on any
thread count. Pair counters follow the bounds; a bound taken from fast
values (a tile extreme, a running K-th value) can move in its last bits
with the tile's shape, which changes a count only if it lands within
those bits of a threshold. All cross-point reductions (centroid means,
force accumulation) happen in original point order.
The physics update of the self-set pipeline is deliberately outside the
distance-counter discipline; only neighbor search is counted and verified.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .counters import CounterSet
# rowwise_lexsort stays a module global: the perfbench tracer rebinds it by name
from .dataset import Dataset, TopKResult, brute_rows, rowwise_lexsort
from .ddsl.lowering import ExecutionPlan
from .errors import (
    InvalidQueryError,
    OracleMismatchError,
    RangeError,
    UnsupportedProgramError,
)
from .explorer import DesignConfig
from .gti import (
    CandidateMatrix,
    GroupModel,
    build_groups,
    filter_iterative,
    filter_oneshot,
    group_max,
    init_oneshot_state,
    lower_bound,
    measured_saving,
    upper_bound,
)
from .kernel import fast_rows, tile_distances
from .layout import LayoutPlan, pack_intra_group, reorder_inter_group
from .metrics import MetricSpec, gathered_distance, rowwise_distance
from .oracles import group_means, knn_topk, nearest_assign, radius_neighbors

DEFAULT_DESIGN = DesignConfig(n_src_grp=64, n_trg_grp=8, blk=64)
# Terms per block of the final top-K recompute: 512 KB of float64.
_SETTLE_BLOCK_ELEMS = 1 << 16
# Cells per block of the per-tile top-K merge: 256 KB of float64, so its
# temporaries stay small enough for the cache and the allocator's heap.
_MERGE_BLOCK_ELEMS = 1 << 15


@dataclass
class RunConfig:
    design: DesignConfig = DEFAULT_DESIGN
    seed: int = 0
    layout_enabled: bool = True
    oracle_mode: str = "off"  # "off" | "shadow"
    thread_count: int = 1
    status_iter_cap: int = 1000  # hard stop for status-exit iteration
    dt: float = 1e-3  # self-set integrator step
    softening: float = 1e-2  # force-law smoothing length

    def __post_init__(self):
        if self.thread_count < 1:
            raise RangeError("thread_count must be >= 1")
        if self.oracle_mode not in ("off", "shadow"):
            raise RangeError(f"unknown oracle mode {self.oracle_mode!r}")


@dataclass
class IterationStats:
    iteration: int
    point_distances: int
    bound_computations: int
    pruned_pairs: int
    all_inside_pairs: int
    reused_pairs: int
    measured_saving: float
    source_batches: int
    source_groups: int
    changed: int | None = None

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class RunResult:
    pipeline_kind: str
    outputs: dict
    iterations: int
    per_iteration: list[IterationStats]
    counters: CounterSet
    measured_saving_mean: float
    wall_time_s: float
    oracle_checked: bool
    layout: LayoutPlan | None = None
    oracle_s: float = 0.0  # time inside the shadow-oracle checks


@dataclass
class _Grouped:
    """Group-wise access to one point set's kernel rows, packed or not.

    ``rows``/``sq`` are ``kernel.fast_rows`` of the values, permuted by the
    layout plan if there is one. Group members are always presented in
    ascending original-id order.
    """

    rows: np.ndarray
    sq: np.ndarray | None  # squared norms of ``rows`` (L2 only), same order
    gm: GroupModel
    plan: LayoutPlan | None

    @classmethod
    def build(cls, values, gm: GroupModel, plan: LayoutPlan | None, metric, centre):
        if plan is not None:
            values = values[plan.point_perm]
        rows, sq = fast_rows(values, centre, metric)
        return cls(rows=rows, sq=sq, gm=gm, plan=plan)

    def batch_ids(self, batch: list[int]) -> np.ndarray:
        if len(batch) == 1:
            return self.gm.membership[batch[0]]
        return np.concatenate([self.gm.membership[g] for g in batch])

    def batch_rows(self, batch: list[int]) -> tuple[np.ndarray, np.ndarray | None]:
        """(rows, sq) for the batch's members."""
        if self.plan is not None:
            rows = slice(self.plan.group_slices[batch[0]][0], self.plan.group_slices[batch[-1]][1])
        else:
            rows = self.batch_ids(batch)
        return self.rows[rows], self.sq[rows] if self.sq is not None else None


def _source_batches(
    order: np.ndarray, cm: CandidateMatrix, layout_enabled: bool
) -> list[list[int]]:
    """Runs of adjacent groups (in processing order) with identical
    candidate lists; without layout every group stands alone."""
    if not layout_enabled:
        return [[int(g)] for g in order]
    return [list(run) for _, run in itertools.groupby(order.tolist(), key=cm.key)]


_FIRST_ROW = np.zeros(1, dtype=np.intp)


def _group_runs(batch: list[int], group_of: np.ndarray, ids: np.ndarray):
    """Split a tile's rows ``ids``, which come grouped in batch order, into
    runs of one source group: (the groups, as an index into a group axis;
    the first row of each run; each run's row count). One-group batches,
    nearly every tile of a k-means run, skip the split and index by a
    slice, which costs a few microseconds less per tile than an index
    array."""
    if len(batch) == 1:
        g = batch[0]
        return slice(g, g + 1), _FIRST_ROW, ids.size
    of = group_of[ids]
    starts = np.flatnonzero(np.concatenate(([True], of[1:] != of[:-1])))
    return of[starts], starts, np.diff(starts, append=ids.size)


def _map_ordered(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# -- the tile engine ------------------------------------------------------


def _sweep(
    src: _Grouped,
    trg: _Grouped,
    cm: CandidateMatrix,
    lb: np.ndarray,
    batches: list[list[int]],
    reducer,
    metric: MetricSpec,
    blk: int,
    threads: int,
) -> CounterSet:
    """Tile every surviving (source batch, candidate target group) pair.

    A batch's candidates are those of its first group and are visited in
    (min lb over the batch, group id) order. ``reducer.bound(ids)`` gives
    the per-point bound of the batch's rows (None: keep every row); a row
    is kept for target group ``t`` while its bound reaches its own group's
    ``lb[., t]``. ``reducer.reduce(batch, t, ids, tile, err)`` receives the
    kept rows' ids, their fast tile and its per-row error bound, and
    returns how many entries it recomputed. Batches touch disjoint source
    rows, so they may run on ``threads`` workers. Returns the tile,
    pruning and recompute tallies.
    """

    def sweep_batch(batch: list[int]) -> CounterSet:
        local = CounterSet()
        ids = src.batch_ids(batch)
        cand = cm.targets[batch[0]]
        if ids.size == 0 or cand.size == 0:
            return local
        rows, sq_rows = src.batch_rows(batch)
        key = np.min(lb[batch][:, cand], axis=0)
        group_of_ids = src.gm.group_of[ids]
        for t in cand[np.lexsort((cand, key))].tolist():
            n_cols = trg.gm.membership[t].size
            if n_cols == 0:
                continue
            bound = reducer.bound(ids)
            if bound is None:
                kept, kept_rows, kept_sq = ids, rows, sq_rows
            else:
                act = np.flatnonzero(bound >= lb[group_of_ids, t])
                local.pruned_pairs += (ids.size - act.size) * n_cols
                if act.size == 0:
                    continue
                kept, kept_rows = ids[act], rows[act]
                kept_sq = sq_rows[act] if sq_rows is not None else None
            cols, sq_cols = trg.batch_rows([t])
            tile, err = tile_distances(kept_rows, cols, metric, blk, local, kept_sq, sq_cols)
            local.recomputed_distances += reducer.reduce(batch, t, kept, tile, err)
        return local

    total = CounterSet()
    for local in _map_ordered(sweep_batch, batches, threads):
        total.add(local)
    return total


class _Nearest:
    """Nearest target per source point under (distance, id) tie-break.

    Per point it keeps the best target so far and bounds [best_lo, best_hi]
    on its direct distance (equal once recomputed). A tile row is decided
    on fast values when the tile's minimum is the only entry that may reach
    below both the tile's and the running best's upper bounds, and lies
    surely below the running best. Otherwise the row is open: those
    entries and the running best are recomputed by direct differencing and
    the (distance, id) minimum wins.
    """

    def __init__(self, points, targets, src_gm: GroupModel, trg_gm: GroupModel, point_ub, metric):
        n = points.shape[0]
        self.best_lo = np.full(n, np.inf)
        self.best_hi = np.full(n, np.inf)
        self.best_id = np.full(n, -1, dtype=np.int64)
        # Per group pair: a lower bound on the direct distances of the tiled
        # rows, and whether every source member was tiled (then it bounds
        # the whole pair).
        self.comp_min = np.full((src_gm.z, trg_gm.z), np.inf)
        self.covered = np.zeros((src_gm.z, trg_gm.z), dtype=bool)
        self.point_ub = point_ub
        self.points, self.targets, self.metric = points, targets, metric
        self.group_of, self.group_sizes = src_gm.group_of, src_gm.sizes
        self.slack = src_gm.slack
        self.members = trg_gm.membership

    def bound(self, ids: np.ndarray) -> np.ndarray | None:
        return None if self.point_ub is None else self.point_ub[ids]

    def reduce(self, batch, t: int, ids: np.ndarray, tile: np.ndarray, err: np.ndarray) -> int:
        cols = self.members[t]
        col = np.argmin(tile, axis=1)
        mn = tile.min(axis=1)
        lo, hi = mn - err, mn + err
        cur_lo, cur_hi = self.best_lo[ids], self.best_hi[ids]
        cand = tile <= (np.minimum(hi, cur_hi) + err)[:, None]
        count = np.count_nonzero(cand, axis=1)
        sure = (count == 1) & (hi < cur_lo)
        upd = ids[sure]
        self.best_lo[upd] = lo[sure]
        self.best_hi[upd] = hi[sure]
        self.best_id[upd] = cols[col[sure]]
        # rows without a candidate keep their running best: it is surely lower
        open_rows = np.flatnonzero(count > sure)
        recomputed = self._settle(ids, open_rows, cand, cols) if open_rows.size else 0
        groups, starts, counts = _group_runs(batch, self.group_of, ids)
        lows = np.minimum.reduceat(lo, starts)
        self.comp_min[groups, t] = np.minimum(self.comp_min[groups, t], lows)
        self.covered[groups, t] |= counts == self.group_sizes[groups]
        return recomputed

    def _settle(self, ids, rows, cand, cols) -> int:
        """Recompute the open rows' candidates and running bests; keep the
        (distance, id) minimum per row. Returns the entries recomputed."""
        r, c = np.nonzero(cand[rows])
        prev = self.best_id[ids[rows]]
        had = prev >= 0
        pid = np.concatenate([ids[rows[r]], ids[rows[had]]])
        tid = np.concatenate([cols[c], prev[had]])
        exact = rowwise_distance(self.points[pid], self.targets[tid], self.metric)
        order = np.lexsort((tid, exact, pid))
        pid_sorted = pid[order]
        first = order[np.concatenate(([True], pid_sorted[1:] != pid_sorted[:-1]))]
        win = pid[first]
        self.best_lo[win] = self.best_hi[win] = exact[first]
        self.best_id[win] = tid[first]
        return pid.size

    def refreshed_lb(self, lb: np.ndarray) -> np.ndarray:
        """Group-pair lower bounds for the next iteration: from the tiles
        where a pair was fully tiled, tightened where it was partly tiled."""
        low = lower_bound(self.comp_min, 0.0, self.slack)
        return np.where(self.covered, low, np.minimum(lb, low))


def _take_rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``a[r, idx[r, j]]`` for every row r, by one flat take (cheaper than
    ``np.take_along_axis``, which builds a second index array)."""
    flat = idx + (np.arange(idx.shape[0]) * a.shape[1])[:, None]
    return np.ravel(a).take(flat)


def _smallest(vals: np.ndarray, ids: np.ndarray, keep: int) -> np.ndarray:
    """Column indices of each row's ``keep`` smallest entries under
    (value, id), in that order.

    Rows more than twice as wide as ``keep`` are first cut to their
    ``keep`` + 1 smallest values by ``argpartition``; on narrower rows the
    partition costs more than it saves. One stable sort by
    value then orders the candidates, which keeps entries that come in
    (value, id) order, such as a running top list, in that order. Only
    rows where the sort breaks the (value, id) rule are redone with
    ``rowwise_lexsort``: equal values out of id order, or a finite value
    tied across the ``keep`` boundary (an entry left out may have the
    smaller id). ``inf`` is the value of placeholders only, which share
    one id, so their ties never need it.
    """
    width = vals.shape[1]
    if width > 2 * keep:
        part = np.argpartition(vals, keep, axis=1)[:, : keep + 1]
        order = _take_rows(part, np.argsort(_take_rows(vals, part), axis=1, kind="stable"))
    else:
        order = np.argsort(vals, axis=1, kind="stable")[:, : keep + 1]
    v = _take_rows(vals, order)
    sel = order[:, :keep]
    i = _take_rows(ids, sel)
    last, nxt = v[:, keep - 1], v[:, keep:].min(axis=1, initial=np.inf)
    v = v[:, :keep]
    broken = np.any((v[:, 1:] == v[:, :-1]) & (i[:, 1:] < i[:, :-1]), axis=1)
    broken |= (last == nxt) & np.isfinite(nxt)
    rows = np.flatnonzero(broken)
    if rows.size:
        sel[rows] = rowwise_lexsort(vals[rows], ids[rows])[:, :keep]
    return sel


class _TopK:
    """Running K + 1 best targets per source point under (fast value, id).

    ``err`` bounds the error of every kept value. The K-th value plus
    ``err`` bounds the K-th direct distance from above, so it is the
    per-point bound; the (K + 1)-th entry witnesses the boundary for
    ``settle``.

    A tile entry can enter a row's K + 1 only if its value is at most the
    row's running (K + 1)-th value; these are the row's survivors. Rows
    without one are not touched. The others, in blocks of bounded size,
    gather just their survivors (a partition to the block's largest
    survivor count), and ``_smallest`` keeps the K + 1 best of those and
    the running entries: one stable sort by value, then a
    ``rowwise_lexsort`` repair of the rows where equal values break the
    id order, within the K + 1 or across its boundary. The state after
    each tile is bitwise what a full (value, id) sort of the running
    entries and the whole tile gives.
    """

    def __init__(self, m: int, k: int, trg_gm: GroupModel):
        self.k = k
        self.top_f = np.full((m, k + 1), np.inf)
        # one past any real target id, so a placeholder always loses ties
        self.top_i = np.full((m, k + 1), trg_gm.n, dtype=np.int64)
        self.err = np.zeros(m)
        self.members = trg_gm.membership

    def bound(self, ids: np.ndarray) -> np.ndarray:
        return self.top_f[ids, self.k - 1] + self.err[ids]

    def reduce(self, batch, t: int, ids: np.ndarray, tile: np.ndarray, err: np.ndarray) -> int:
        self.err[ids] = np.maximum(self.err[ids], err)
        count = np.count_nonzero(tile <= self.top_f[ids, self.k][:, None], axis=1)
        act = np.flatnonzero(count)
        step = max(1, _MERGE_BLOCK_ELEMS // (self.k + 1 + tile.shape[1]))
        for start in range(0, act.size, step):
            block = act[start : start + step]
            self._merge(ids[block], tile[block], self.members[t], int(count[block].max()))
        return 0

    def _merge(self, rows, tile, cols, s: int) -> None:
        """Merge the tile rows of ``rows``, each with at most ``s``
        survivors, into their running K + 1."""
        if s < cols.size:
            part = np.argpartition(tile, s - 1, axis=1)[:, :s]
            tile, cols = _take_rows(tile, part), cols[part]
        else:
            cols = np.broadcast_to(cols, tile.shape)
        cat_d = np.concatenate([self.top_f[rows], tile], axis=1)
        cat_i = np.concatenate([self.top_i[rows], cols], axis=1)
        sel = _smallest(cat_d, cat_i, self.k + 1)
        self.top_f[rows] = _take_rows(cat_d, sel)
        self.top_i[rows] = _take_rows(cat_i, sel)

    def settle(self, src, trg, metric, counters: CounterSet) -> tuple[np.ndarray, np.ndarray]:
        """The exact top-K ids and distances, rows ordered by (distance, id).

        Where the (K + 1)-th fast value lies more than 2*err above the K-th,
        the first K entries are exactly the K nearest (every target left
        out, tiled or pruned, is surely farther), so their distances are
        recomputed directly. Other rows are redone over all targets by brute
        force and ``_smallest``. Both run in row blocks of bounded size.
        """
        k, n = self.k, trg.shape[0]
        ids = self.top_i[:, :k]
        dist = gathered_distance(src, trg, ids, metric, _SETTLE_BLOCK_ELEMS)
        redo = np.flatnonzero(self.top_f[:, k] - self.top_f[:, k - 1] <= 2 * self.err)
        step = max(1, _SETTLE_BLOCK_ELEMS // (n * src.shape[1]))
        for start in range(0, redo.size, step):
            block = redo[start : start + step]
            full = brute_rows(src[block], trg, metric)
            order = _smallest(full, np.broadcast_to(np.arange(n), full.shape), k)
            ids[block] = order
            dist[block] = _take_rows(full, order)
        counters.recomputed_distances += ids.size + redo.size * n
        # rows come in (fast value, id) order; reorder those the exact
        # values put out of (distance, id) order
        same = dist[:, 1:] == dist[:, :-1]
        rows = np.flatnonzero(
            np.any((dist[:, 1:] < dist[:, :-1]) | (same & (ids[:, 1:] < ids[:, :-1])), axis=1)
        )
        if rows.size:
            order = rowwise_lexsort(dist[rows], ids[rows])
            ids[rows] = np.take_along_axis(ids[rows], order, axis=1)
            dist[rows] = np.take_along_axis(dist[rows], order, axis=1)
        return ids, dist


class _Radius:
    """Neighbor pairs within a radius, step after step of a self-set run.

    ``lb``/``ub`` are the group-pair bounds carried from step to step; a
    tile resets them, for each (source group, target group) pair it
    covers, to the extremes of that group's rows widened by each row's
    error bound and the bound slack. A step's pairs are collected per
    batch (under the batch's first group), so concurrent batches never
    share a list.
    """

    def __init__(self, gm: GroupModel, radius: float, metric: MetricSpec):
        self.gm = gm
        self.radius = radius
        self.metric = metric
        self.slack = gm.slack
        self.lb = np.zeros((gm.z, gm.z))
        self.ub = np.zeros((gm.z, gm.z))
        self.pairs: list[list[tuple[np.ndarray, np.ndarray]]] = []
        self.pos: np.ndarray | None = None

    def resolve(self, cm: CandidateMatrix, pos: np.ndarray, counters: CounterSet) -> CandidateMatrix:
        """Start a step at positions ``pos``: take every member pair of the
        all-inside group pairs without a tile and return the candidates
        left to tile."""
        self.pos = pos
        self.pairs = [[] for _ in range(self.gm.z)]
        if cm.all_inside is None:
            return cm
        members = self.gm.membership
        for a, (cand, inside) in enumerate(zip(cm.targets, cm.all_inside)):
            if inside.any():
                rows_a = members[a]
                rows_b = np.concatenate([members[b] for b in cand[inside].tolist()])
                counters.all_inside_pairs += rows_a.size * rows_b.size
                self.pairs[a].append((np.repeat(rows_a, rows_b.size), np.tile(rows_b, rows_a.size)))
        return CandidateMatrix(
            targets=[cand[~inside] for cand, inside in zip(cm.targets, cm.all_inside)]
        )

    @staticmethod
    def bound(ids: np.ndarray) -> None:
        return None

    def reduce(self, batch, b: int, ids: np.ndarray, tile: np.ndarray, err: np.ndarray) -> int:
        """Per row, entries at most R - err are within the radius and
        entries above R + err outside; the band between is recomputed."""
        cols = self.gm.membership[b]
        hit_r, hit_c = np.nonzero(tile <= (self.radius + err)[:, None])
        band = np.flatnonzero(tile[hit_r, hit_c] > self.radius - err[hit_r])
        if band.size:
            exact = rowwise_distance(
                self.pos[ids[hit_r[band]]], self.pos[cols[hit_c[band]]], self.metric
            )
            keep = np.ones(hit_r.size, dtype=bool)
            keep[band] = exact <= self.radius
            hit_r, hit_c = hit_r[keep], hit_c[keep]
        self.pairs[batch[0]].append((ids[hit_r], cols[hit_c]))
        groups, starts, _ = _group_runs(batch, self.gm.group_of, ids)
        low = np.minimum.reduceat(tile.min(axis=1) - err, starts)
        high = np.maximum.reduceat(tile.max(axis=1) + err, starts)
        self.lb[groups, b] = lower_bound(low, 0.0, self.slack)
        self.ub[groups, b] = upper_bound(high, self.slack)
        return band.size

    def assemble(self, n: int) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """The step's pairs i != j sorted by (i, j), and per point its
        sorted neighbor ids. Each pair occurs once, so one sort of the key
        i*n + j orders them."""
        parts = [p for group in self.pairs for p in group]
        all_i = np.concatenate([np.empty(0, dtype=np.int64), *(p[0] for p in parts)])
        all_j = np.concatenate([np.empty(0, dtype=np.int64), *(p[1] for p in parts)])
        keep = all_i != all_j
        all_i, all_j = np.divmod(np.sort(all_i[keep] * n + all_j[keep]), n)
        offsets = np.searchsorted(all_i, np.arange(n + 1))
        return all_i, all_j, [all_j[offsets[i] : offsets[i + 1]] for i in range(n)]


# -- shared run bookkeeping -------------------------------------------------


def _check_kind(plan: ExecutionPlan, expected: str) -> None:
    if plan.pipeline_kind != expected:
        raise UnsupportedProgramError(
            f"plan is {plan.pipeline_kind}, runner expects {expected}"
        )


def _stats(it: int, delta: CounterSet, n1: int, n2: int, batches: int, groups: int, changed=None):
    return IterationStats(
        iteration=it,
        point_distances=delta.point_distances,
        bound_computations=delta.bound_computations,
        pruned_pairs=delta.pruned_pairs,
        all_inside_pairs=delta.all_inside_pairs,
        reused_pairs=delta.reused_pairs,
        measured_saving=measured_saving(delta.point_distances, n1, n2),
        source_batches=batches,
        source_groups=groups,
        changed=changed,
    )


def _result(plan, outputs, per_iter, counters, config, t0, layout, oracle_s) -> RunResult:
    return RunResult(
        pipeline_kind=plan.pipeline_kind,
        outputs=outputs,
        iterations=len(per_iter),
        per_iteration=per_iter,
        counters=counters,
        measured_saving_mean=(
            float(np.mean([s.measured_saving for s in per_iter])) if per_iter else 0.0
        ),
        wall_time_s=time.perf_counter() - t0,
        oracle_checked=config.oracle_mode == "shadow",
        layout=layout,
        oracle_s=oracle_s,
    )


# -- iterative two-set (cluster refinement) -------------------------------


def run_kmeans(
    plan: ExecutionPlan,
    points: Dataset,
    config: RunConfig,
    initial_clusters: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> RunResult:
    """Lloyd-style iteration with trace/group-level bound pruning.

    Iteration 1 runs unpruned to seed the bounds; later iterations decay
    them by the per-cluster drift. Assignment is the nearest cluster under
    (distance, id) tie-break; centroids are member means; empty clusters
    keep their position. Exit on unchanged assignments or the iteration
    cap.
    """
    _check_kind(plan, "iterative_two_set")
    t0 = time.perf_counter()
    metric = plan.metric_spec(weights)
    n, d = points.n, points.d
    metric.check_dim(d)
    rng = np.random.default_rng(config.seed)
    if initial_clusters is None:
        k = plan.target_size
        if k < 1 or k > n:
            raise RangeError(f"cluster count {k} out of range 1..{n}")
        centroids = points.values[np.sort(rng.choice(n, size=k, replace=False))].copy()
    else:
        centroids = np.array(initial_clusters, dtype=np.float64, copy=True)
        k = centroids.shape[0]
    if centroids.shape[1] != d:
        raise RangeError(f"cluster dim {centroids.shape[1]} does not match data dim {d}")

    counters = CounterSet()
    z_src = min(config.design.n_src_grp, n)
    z_trg = min(config.design.n_trg_grp, k)
    src_gm = build_groups(points, z_src, config.seed + 1, metric, counters)
    # cluster-id groups, fixed across iterations
    trg_gm = build_groups(Dataset.from_values(centroids), z_trg, config.seed + 2, metric, counters)

    lplan = pack_intra_group(points, src_gm) if config.layout_enabled else None
    centre = points.values.mean(axis=0)
    grouped = _Grouped.build(points.values, src_gm, lplan, metric, centre)

    max_iter = plan.max_iter if plan.max_iter is not None else config.status_iter_cap
    per_iter: list[IterationStats] = []
    # carried between iterations: the group-pair lower bounds, and each
    # point's last best distance (an upper bound on its direct value) and
    # cluster (``assignments``)
    lb = np.full((z_src, z_trg), np.inf)
    best_d = assignments = None
    oracle_centroids = centroids.copy() if config.oracle_mode == "shadow" else None
    oracle_s = 0.0

    for it in range(1, max_iter + 1):
        base = counters.snapshot()
        reused_iteration = False
        if it == 1:
            cm = CandidateMatrix.full(z_src, z_trg)
            point_ub = None
        else:
            drifts = rowwise_distance(prev_centroids, centroids, metric)
            counters.bound_computations += k
            if float(drifts.max()) == 0.0:
                reused_iteration = True
            else:
                point_ub = upper_bound(best_d + drifts[assignments], src_gm.slack)
                cm = filter_iterative(
                    src_gm, trg_gm, lb, group_max(point_ub, src_gm.group_of, z_src),
                    np.zeros(z_src), group_max(drifts, trg_gm.group_of, z_trg), counters,
                )

        if reused_iteration:
            counters.reused_pairs += n * k
            new_assign = assignments
            n_batches = 0
        else:
            batches = _source_batches(np.arange(z_src), cm, config.layout_enabled)
            n_batches = len(batches)
            nearest = _Nearest(points.values, centroids, src_gm, trg_gm, point_ub, metric)
            targets = _Grouped.build(centroids, trg_gm, None, metric, centre)
            sweep = _sweep(
                grouped, targets, cm, lb, batches, nearest, metric,
                config.design.blk, config.thread_count,
            )
            counters.add(sweep)
            assert np.all(nearest.best_id >= 0), "nearest-target invariant violated"
            new_assign, best_d = nearest.best_id, nearest.best_hi
            lb = nearest.refreshed_lb(lb)

        changed = (
            n if assignments is None else int(np.count_nonzero(new_assign != assignments))
        )
        assignments = new_assign

        if config.oracle_mode == "shadow":
            t_oracle = time.perf_counter()
            oracle_assign, _ = nearest_assign(points.values, oracle_centroids, metric)
            diff = np.flatnonzero(oracle_assign != assignments)
            if diff.size:
                i = int(diff[0])
                raise OracleMismatchError(
                    f"iteration {it}: point {i} assigned {int(assignments[i])}, "
                    f"oracle says {int(oracle_assign[i])}",
                    detail={"iteration": it, "point": i},
                )
            oracle_centroids = group_means(points.values, oracle_assign, k, oracle_centroids)
            oracle_s += time.perf_counter() - t_oracle

        prev_centroids = centroids
        centroids = group_means(points.values, assignments, k, centroids)

        delta = counters.delta_since(base)
        per_iter.append(_stats(it, delta, n, k, n_batches, z_src, changed))
        if changed == 0:
            break

    outputs = {"assignments": assignments, "centroids": centroids}
    return _result(plan, outputs, per_iter, counters, config, t0, lplan, oracle_s)


# -- one-shot two-set (top-K join) ----------------------------------------


def run_knn_join(
    plan: ExecutionPlan,
    src: Dataset,
    trg: Dataset,
    config: RunConfig,
    weights: np.ndarray | None = None,
) -> RunResult:
    """Exact top-K join: group both sets, filter group pairs through the
    two-landmark bounds, then refine per point with a running k-th-best
    threshold. Self-matches are kept (a point joined against its own set
    finds itself at distance zero)."""
    _check_kind(plan, "oneshot_two_set")
    t0 = time.perf_counter()
    metric = plan.metric_spec(weights)
    if src.d != trg.d:
        raise RangeError(f"source dim {src.d} != target dim {trg.d}")
    metric.check_dim(src.d)
    k = int(plan.select.value)
    if k < 1 or k > trg.n:
        raise InvalidQueryError(f"top-K count {k} out of range for {trg.n} targets")

    counters = CounterSet()
    m, n = src.n, trg.n
    z_src = min(config.design.n_src_grp, m)
    z_trg = min(config.design.n_trg_grp, n)
    src_gm = build_groups(src, z_src, config.seed + 1, metric, counters)
    trg_gm = build_groups(trg, z_trg, config.seed + 2, metric, counters)
    lb, ub = init_oneshot_state(src_gm, trg_gm, counters)
    cm = filter_oneshot(src_gm, trg_gm, lb, ub, k, counters)

    order = reorder_inter_group(cm) if config.layout_enabled else np.arange(z_src)
    src_lp = pack_intra_group(src, src_gm, group_order=order) if config.layout_enabled else None
    trg_lp = pack_intra_group(trg, trg_gm) if config.layout_enabled else None
    batches = _source_batches(order, cm, config.layout_enabled)
    topk = _TopK(m, k, trg_gm)
    centre = src.values.mean(axis=0)
    g_src = _Grouped.build(src.values, src_gm, src_lp, metric, centre)
    g_trg = _Grouped.build(trg.values, trg_gm, trg_lp, metric, centre)
    sweep = _sweep(
        g_src, g_trg, cm, lb, batches, topk, metric, config.design.blk, config.thread_count
    )
    counters.add(sweep)
    ids, dists = topk.settle(src.values, trg.values, metric, counters)
    result = TopKResult(ids=ids, distances=dists, scope="smallest", row_ids=src.ids.copy())

    oracle_s = 0.0
    if config.oracle_mode == "shadow":
        t_oracle = time.perf_counter()
        # the oracle's rows are ordered by (distance, id), so equal rows
        # are equally ordered
        o_ids, o_dists = knn_topk(src.values, trg.values, metric, k)
        diff = (ids != o_ids) | (dists != o_dists)
        bad = np.flatnonzero(diff.any(axis=1))
        if bad.size:
            i = int(bad[0])
            j = int(np.argmax(diff[i]))
            raise OracleMismatchError(
                f"source point {i}, column {j}: target {ids[i, j]} at {dists[i, j]!r}, "
                f"oracle has target {o_ids[i, j]} at {o_dists[i, j]!r}",
                detail={
                    "point": i,
                    "column": j,
                    "got": [int(ids[i, j]), float(dists[i, j])],
                    "want": [int(o_ids[i, j]), float(o_dists[i, j])],
                },
            )
        oracle_s = time.perf_counter() - t_oracle

    stats = _stats(1, counters, m, n, len(batches), z_src)
    return _result(plan, {"topk": result}, [stats], counters, config, t0, src_lp, oracle_s)


# -- iterative self-set (radius neighbors with movement) -------------------


def default_force_rule(
    pos: np.ndarray, nbr_i: np.ndarray, nbr_j: np.ndarray, softening: float
) -> np.ndarray:
    """Softened inverse-square attraction over the neighbor pairs, unit
    mass. A demonstration update rule; neighbor search is the verified
    part, the physics is pluggable."""
    acc = np.zeros_like(pos)
    if nbr_i.size == 0:
        return acc
    diff = pos[nbr_j] - pos[nbr_i]
    r2 = np.add.reduce(diff * diff, axis=1) + softening * softening
    contrib = diff * (r2**-1.5)[:, None]
    np.add.at(acc, nbr_i, contrib)
    return acc


def run_nbody(
    plan: ExecutionPlan,
    particles: Dataset,
    config: RunConfig,
    force_rule=None,
    weights: np.ndarray | None = None,
) -> RunResult:
    """Fixed-radius neighbor search per step with trace-bound reuse.

    Step 1 computes all pair distances to seed group-pair bounds; later
    steps decay the bounds by group drift and only recompute surviving
    pairs. Group pairs whose upper bound stays inside the radius
    contribute every member pair with no distance work. Each step sweeps
    the remaining candidates in source batches, as the two-set pipelines
    do: with layout, adjacent groups with the same candidate list share
    one kernel call per target group.
    """
    _check_kind(plan, "iterative_self_set")
    t0 = time.perf_counter()
    metric = plan.metric_spec(weights)
    radius = float(plan.select.value)
    if radius <= 0:
        raise RangeError("radius must be positive")
    n, d = particles.n, particles.d
    metric.check_dim(d)
    steps = plan.max_iter if plan.max_iter is not None else config.status_iter_cap
    force = force_rule if force_rule is not None else default_force_rule

    counters = CounterSet()
    z = min(config.design.n_src_grp, n)
    gm = build_groups(particles, z, config.seed + 1, metric, counters)
    lplan = pack_intra_group(particles, gm) if config.layout_enabled else None

    pos = particles.values.copy()
    vel = np.zeros_like(pos)
    within = _Radius(gm, radius, metric)
    thr = np.full(z, radius)

    neighbors_per_step: list[list[np.ndarray]] = []
    trajectories: list[np.ndarray] = [pos.copy()]
    per_iter: list[IterationStats] = []
    prev_drift: np.ndarray | None = None
    oracle_s = 0.0

    for step in range(1, steps + 1):
        base = counters.snapshot()
        grouped = _Grouped.build(pos, gm, lplan, metric, pos.mean(axis=0))
        if step == 1:
            cm = CandidateMatrix.full(z, z)
        else:
            counters.bound_computations += n  # drift distances recorded at integration
            gd = group_max(prev_drift, gm.group_of, z)
            cm = filter_iterative(gm, gm, within.lb, thr, gd, gd, counters, ub=within.ub)

        to_tile = within.resolve(cm, pos, counters)
        batches = _source_batches(np.arange(z), to_tile, config.layout_enabled)
        sweep = _sweep(
            grouped, grouped, to_tile, within.lb, batches, within, metric,
            config.design.blk, config.thread_count,
        )
        counters.add(sweep)
        all_i, all_j, lists = within.assemble(n)
        neighbors_per_step.append(lists)

        if config.oracle_mode == "shadow":
            t_oracle = time.perf_counter()
            want = radius_neighbors(pos, metric, radius)
            for i in range(n):
                if not np.array_equal(lists[i], want[i]):
                    raise OracleMismatchError(
                        f"step {step}: neighbor list of point {i} differs from oracle",
                        detail={
                            "step": step,
                            "point": i,
                            "got": lists[i].tolist(),
                            "want": want[i].tolist(),
                        },
                    )
            oracle_s += time.perf_counter() - t_oracle

        # Integrate in original point order; movement feeds the next
        # step's bound decay.
        acc = force(pos, all_i, all_j, config.softening)
        vel = vel + acc * config.dt
        new_pos = pos + vel * config.dt
        prev_drift = rowwise_distance(pos, new_pos, metric)
        pos = new_pos
        trajectories.append(pos.copy())
        per_iter.append(_stats(step, counters.delta_since(base), n, n, len(batches), z))

    outputs = {"neighbors": neighbors_per_step, "trajectories": trajectories}
    return _result(plan, outputs, per_iter, counters, config, t0, lplan, oracle_s)


def run_plan(
    plan: ExecutionPlan,
    src: Dataset,
    trg: Dataset | None = None,
    config: RunConfig | None = None,
    weights: np.ndarray | None = None,
    initial_clusters: np.ndarray | None = None,
) -> RunResult:
    """Dispatch a lowered plan to its pipeline runner.

    Two-set plans take ``trg`` as the initial clusters (iterative) or the
    join's target set (one-shot; defaults to ``src``). Self-set plans take
    ``src`` alone.
    """
    config = config or RunConfig()
    if plan.pipeline_kind == "iterative_two_set":
        if initial_clusters is None and trg is not None:
            initial_clusters = trg.values
        return run_kmeans(plan, src, config, initial_clusters=initial_clusters, weights=weights)
    if plan.pipeline_kind == "oneshot_two_set":
        return run_knn_join(plan, src, trg if trg is not None else src, config, weights=weights)
    if plan.pipeline_kind == "iterative_self_set":
        if trg is not None:
            raise UnsupportedProgramError("self-set pipelines take a single dataset")
        return run_nbody(plan, src, config, weights=weights)
    raise UnsupportedProgramError(f"unknown pipeline kind {plan.pipeline_kind}")
