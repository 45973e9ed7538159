"""End-to-end pipeline execution.

Three pipeline shapes are supported: iterative two-set (cluster-style),
one-shot two-set (top-K join), and iterative self-set (radius neighbors
with movement). Each run tallies every avoided or executed point-pair and
can shadow a brute-force oracle that must agree exactly.

One tile engine, ``_tile_rows``, serves all three, and it is the one
caller of ``kernel.tile_distances``. It tiles a set of source rows once
against a list of target columns, in row blocks, and hands each tile to a
reducer: the pipeline's own, grouping's top-1 pass (``gti._Nearest``), or
a pass against landmarks or centres that bounds each point's distance to
each target group. Each pipeline groups one set, and layout packing makes
each group's members one slice of its kernel rows. One batching path,
``_sweep``, feeds the engine: each source point's row of a boolean reach
mask names the target groups it must be tiled against, and each run of
points with equal rows (``layout.reorder_inter_group``) is one batch.

* ``_Yinyang`` (iterative two-set) groups the centres and bounds each
  point against each centre group, seeded in iteration 1 from the
  landmarks and the centres' distances to each other.
* ``_TopK`` (one-shot two-set) groups the targets, cuts per point by the
  landmark bounds (``_TopK.cut``) and keeps each row's K + 1 smallest fast
  values from its one tile; ``settle`` makes them exact, handing the rows
  a tie or rounding leaves open to the oracle, ``oracles.knn_topk``.
* ``_Radius`` (iterative self-set) sweeps, one group per batch, only to
  rebuild a Verlet list of the unordered pairs within the radius plus a
  skin, each kept unordered group pair tiled once. Every step evaluates
  the listed pairs by direct differencing into one CSR of neighbor lists
  (``dataset.NeighborLists``) and hands the force rule each pair's squared
  Euclidean sum, so no pair is differenced twice.

Numerical discipline. Kernel tiles are fast, not the oracles' arithmetic,
and BLAS may round one pair differently in tiles of different shapes, so
each tile row carries a bound on its error (``kernel.tile_distances``).
Tiles are in tile scale, squared distances under L2, and reducers decide
there: a threshold enters it through ``MetricSpec.to_tile``, rounded up
so that it also covers two direct sums whose roots round to one distance,
and only the values a reducer keeps as bounds (a landmark tile, each
group's minimum) are rooted, with their error, by ``MetricSpec.from_tile``.
Reducers decide on fast values only where that bound settles a decision
and recompute what it leaves open, and every reported distance, by direct
differencing (``metrics.rowwise_distance``, the oracles' arithmetic).
The n-body step's list pass, force rule and drift work coordinate-major,
from one contiguous (d, n) copy of each step's positions, so every gather
reads one coordinate's contiguous column; ``metrics.column_sum`` adds
their per-coordinate terms in numpy's pairwise order, so their sums are
bitwise the oracles' row sums. Every pruning bound carries the rounding
slack of ``gti``. Outputs therefore equal the oracles' bitwise, in any
packing order and on any thread count. Every runner, and every oracle,
first checks that its inputs lie in the metric's domain
(``MetricSpec.check_domain``), where no value it forms overflows; n-body
checks each step's positions with the next step's, and under Euclidean
distance too, as its force is. Pair counters follow the bounds; a bound
taken from fast values (a tile extreme) can move in its last bits with
the tile's shape, which changes a count only if it lands within those
bits of a threshold. All cross-point reductions (centroid means, force
accumulation) happen in original point order. The physics update of the
self-set pipeline is deliberately outside the distance-counter
discipline; only neighbor search is counted and verified.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .counters import CounterSet
# rowwise_lexsort stays a module global: the perfbench tracer rebinds it by name
from .dataset import Dataset, NeighborLists, TopKResult, id_dtype, rowwise_lexsort
from .ddsl.lowering import ExecutionPlan
from .errors import (
    InvalidQueryError,
    OracleMismatchError,
    RangeError,
    UnsupportedProgramError,
)
from .explorer import DesignConfig
from .gti import (
    GroupModel,
    build_groups,
    filter_iterative,
    filter_oneshot,
    group_max,
    init_oneshot_state,
    lower_bound,
    measured_saving,
    two_landmark_bounds,
    upper_bound,
)
from .kernel import fast_rows, tile_distances
from .layout import LayoutPlan, pack_intra_group, reorder_inter_group
from .metrics import (
    MetricSpec,
    column_sum,
    coordinate_distance,
    gathered_distance,
    rowwise_distance,
)
from .oracles import group_means, knn_topk, nearest_assign, radius_neighbors

DEFAULT_DESIGN = DesignConfig(n_src_grp=64, n_trg_grp=8)
# Terms per block of a recompute by direct differencing (the top-K settle,
# the k-means winners, the n-body list): 512 KB of float64.
_DIRECT_BLOCK_ELEMS = 1 << 16
# The n-body Verlet list's skin, as a fraction of the radius.
_SKIN_FRACTION = 1 / 32


@dataclass
class RunConfig:
    design: DesignConfig = DEFAULT_DESIGN  # n_src_grp: n-body's groups; two-set runs ignore it
    seed: int = 0
    oracle_mode: str = "off"  # "off" | "shadow"
    thread_count: int = 1  # sweep workers of the join and n-body; k-means sweeps on one
    status_iter_cap: int = 1000  # caps status-mode k-means, which has no max_iter
    dt: float = 1e-3  # self-set integrator step
    softening: float = 1e-2  # force-law smoothing length

    def __post_init__(self):
        if self.thread_count < 1:
            raise RangeError("thread_count must be >= 1")
        if self.oracle_mode not in ("off", "shadow"):
            raise RangeError(f"unknown oracle mode {self.oracle_mode!r}")
        if self.status_iter_cap < 1:
            raise RangeError("status_iter_cap must be >= 1")
        for name in ("dt", "softening"):
            if not np.isfinite(getattr(self, name)):
                raise RangeError(f"{name} must be finite")


@dataclass
class IterationStats:
    iteration: int
    point_distances: int
    bound_computations: int
    pruned_pairs: int
    all_inside_pairs: int
    reused_pairs: int
    measured_saving: float
    # runs of points with equal reach-mask rows swept (``_sweep``), one per
    # reach pattern and not per kernel call; in n-body, one per group
    source_batches: int
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
    layout: LayoutPlan  # the grouped set's packing: the targets, centres or particles
    oracle_s: float = 0.0  # time inside the shadow-oracle checks


@dataclass
class _Grouped:
    """Group-wise access to one point set's kernel rows, packed by its
    layout plan: ``rows`` are ``kernel.fast_rows`` of the values in packed
    order, so each group's members, in ascending original-id order, are
    one slice.
    """

    rows: np.ndarray
    gm: GroupModel
    plan: LayoutPlan

    @classmethod
    def build(cls, values, gm: GroupModel, plan: LayoutPlan, metric, centre):
        return cls(rows=fast_rows(values[plan.point_perm], centre, metric), gm=gm, plan=plan)

    def targets(self, groups: np.ndarray) -> tuple:
        """The tile engine's targets (``_tile_rows``): the members of the
        non-empty groups ``groups``, concatenated, a slice of the packing
        when the groups lie next to each other in it, else the positions
        their slices name."""
        start, stop = self.plan.group_slices[groups].T
        sizes = stop - start
        col_starts = np.cumsum(sizes) - sizes
        if (start[1:] == stop[:-1]).all():
            at = slice(int(start[0]), int(stop[-1]))
        else:
            at = np.repeat(start - col_starts, sizes)
            at += np.arange(at.size)
        return groups, self.plan.point_perm[at], self.rows[at], col_starts


def _point_targets(values, centre, metric: MetricSpec) -> tuple:
    """The tile engine's targets with each of ``values`` its own group,
    numbered by row: the landmarks or centres a bound pass tiles against."""
    every = np.arange(values.shape[0])
    return every, every, fast_rows(values, centre, metric), every


def _pair_distances(a, i, b, j, metric: MetricSpec) -> np.ndarray:
    """Direct distances of the pairs (a[i[p]], b[j[p]]), gathered in blocks:
    ``rowwise_distance`` holds four arrays of a block's terms."""
    out = np.empty(i.size)
    step = max(1, _DIRECT_BLOCK_ELEMS // (4 * a.shape[1]))
    for start in range(0, i.size, step):
        at = slice(start, start + step)
        out[at] = rowwise_distance(a.take(i[at], axis=0), b.take(j[at], axis=0), metric)
    return out


# -- the tile engine ------------------------------------------------------


def _tile_rows(src, at, ids, trg, reduce, cells, metric, counters) -> None:
    """The one tile engine, and the one caller of ``tile_distances``: tile
    the source rows ``src[at]`` (``src`` is fast rows, ``at`` a slice or
    positions), whose ids are ``ids``, against ``trg`` = (groups, cols,
    rows, col_starts): the ids and fast rows of the members of ``groups``,
    concatenated, and each group's first column. Row blocks of ``cells``
    cells at most are sliced or gathered as they are tiled; each tile goes
    to ``reduce(groups, cols, col_starts, ids, tile, err)`` with the
    block's ids and error bounds."""
    groups, cols, col_rows, col_starts = trg
    step = max(1, cells // cols.size)
    for i in range(0, ids.size, step):
        if isinstance(at, slice):
            block = slice(at.start + i, min(at.stop, at.start + i + step))
        else:
            block = at[i : i + step]
        tile, err = tile_distances(src[block], col_rows, metric, counters)
        reduce(groups, cols, col_starts, ids[i : i + step], tile, err)


def _sweep(rows, ids, reach, targets: _Grouped, reducer, metric, counters, threads) -> int:
    """The one batching path: tile each source row ``ids[r]`` of ``rows``
    (fast rows, in id order) once against the non-empty groups
    of ``targets`` that row r of ``reach`` names. Rows with equal masks are
    one batch (``reorder_inter_group``), ids ascending; batches touch
    disjoint rows, so they may run on ``threads`` workers. Adds the tiles'
    tallies to ``counters``; returns the batches swept."""
    reach = reach & (targets.gm.sizes > 0)  # empty groups hold no target
    order, starts = reorder_inter_group(reach)
    heads, ids = reach[order[starts]], ids[order]  # each run's row of the mask, and its ids
    del reach, order  # before the tiles
    ends = [*starts[1:].tolist(), ids.size]
    runs = [(ids[a:b], np.flatnonzero(head)) for a, b, head in zip(starts.tolist(), ends, heads)]
    runs = [run for run in runs if run[1].size]

    def sweep_run(run, tally: CounterSet) -> CounterSet:
        at, groups = run
        _tile_rows(rows, at, at, targets.targets(groups), reducer.reduce, reducer.TILE_CELLS,
                   metric, tally)
        return tally

    if threads <= 1 or len(runs) <= 1:
        for run in runs:
            sweep_run(run, counters)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for local in pool.map(sweep_run, runs, [CounterSet() for _ in runs]):
                counters.add(local)
    return len(runs)


class _Yinyang:
    """Nearest centre per point under (distance, id), with the bounds of
    Yinyang k-means (Ding et al., ICML 2015), as a reducer of the tile
    engine. Only the centres are grouped (``gm``, packed by ``plan``). Each
    point i keeps its centre ``assign[i]``, ``ub[i]`` at least its direct
    distance to it, and ``lb[g, i]`` at most its direct distance to every
    other centre of group g (``inf`` where g holds none), group-major.

    The groups are built on iteration 1's centres, so their landmarks and
    radii bound that iteration's distances (``first``). Later iterations
    decay the bounds by the centres' drift, with the slack of ``gti``, and
    skip a point whose ``ub`` lies below every ``lb``, also once ``ub`` is
    tightened to the direct distance. Both then ``_search`` the rest: the
    open points are batched by the groups whose ``lb`` reaches their
    ``ub`` (``_sweep``, every pipeline's batching path), and each batch is
    swept once against its groups' centres. Every kernel call takes
    ``TILE_CELLS // cols`` rows against ``cols`` columns.
    """

    TILE_CELLS = 1 << 14  # 128 KB of float64 per tile; its gathered rows add d / cols of it

    def __init__(self, points: np.ndarray, metric: MetricSpec, gm: GroupModel, plan: LayoutPlan):
        n = points.shape[0]
        self.points, self.metric, self.gm, self.plan = points, metric, gm, plan
        self.centre = points.mean(axis=0)
        self.rows = fast_rows(points, self.centre, metric)
        self.assign, self.ub = np.empty(n, dtype=np.int64), np.empty(n)
        self.lb = np.empty((gm.z, n))
        self.live = np.flatnonzero(gm.sizes)  # the non-empty groups
        # per search: the centres, as values and tile targets, the run's
        # counters, and whether ``ub`` is exact yet
        self.centroids = self.centres = self.counters = self.exact = None

    def first(self, centroids: np.ndarray, counters: CounterSet) -> int:
        """Iteration 1, on the centres the groups were built on; returns
        the batches swept. Each point's distances to the z landmarks seed
        ``lb[g]`` at that distance less group g's radius, and name its
        nearest non-empty group, which it is swept against first (one batch
        per group). Elkan's bound (ICML 2003), the distance from the point's
        centre to a group's nearest other centre less ``ub``, then tightens
        every ``lb`` before the search of the other groups. The landmark and
        centre-to-centre tiles count as ``bound_computations``."""
        n, slack, gm, metric = self.points.shape[0], self.gm.slack, self.gm, self.metric
        base, seen = counters.snapshot(), CounterSet()
        near = np.empty(n, dtype=np.int64)

        def seed(groups, cols, col_starts, ids, tile, err) -> None:
            tile[:, gm.sizes == 0] = np.inf  # a group without centres bounds nothing
            near[ids] = tile.argmin(axis=1)
            dist, bound = metric.from_tile(tile, err[:, None])
            self.lb[:, ids] = lower_bound(dist - bound, gm.radius, slack).T

        marks = _point_targets(gm.landmarks, self.centre, metric)
        _tile_rows(self.rows, slice(0, n), np.arange(n), marks, seed, self.TILE_CELLS, metric, seen)

        self.centroids, self.counters, self.exact = centroids, counters, False
        self.centres = _Grouped.build(centroids, gm, self.plan, metric, self.centre)
        batches = _sweep(self.rows, np.arange(n), near[:, None] == np.arange(gm.z), self.centres,
                         self, metric, counters, 1)
        own = np.argsort(self.plan.point_perm)[self.assign]  # each point's centre, packed
        for lb, gap in zip(self.lb, self._gaps(seen).T):
            np.maximum(lb, lower_bound(gap.take(own), self.ub, slack), out=lb)
        del own, gap  # before the search
        seen.bound_computations, seen.point_distances = seen.point_distances, 0
        counters.add(seen)
        batches += self._search(np.arange(n), skip=near)
        delta = counters.delta_since(base)
        # every pair not tiled is pruned
        counters.pruned_pairs += n * centroids.shape[0] - delta.point_distances
        return batches

    def _gaps(self, counters: CounterSet) -> np.ndarray:
        """Per centre, in packed order, and group g: at most the centre's
        direct distance to every other centre of g (``inf`` where g holds
        none), from fast tiles of the centres against each other. The live
        groups are taken in packing order, so the columns are the packed
        centres in order, and row i's own column is i."""
        centres, k = self.centres, self.centroids.shape[0]
        gaps = np.full((k, self.gm.z), np.inf)

        def fold(groups, cols, col_starts, ids, tile, err) -> None:
            tile[np.arange(ids.size), ids] = np.inf  # a centre bounds only the others
            low = np.minimum.reduceat(tile, col_starts, axis=1)
            dist, bound = self.metric.from_tile(low, err[:, None])
            gaps[ids[:, None], groups] = dist - bound

        starts = self.plan.group_slices[self.live, 0]
        live = centres.targets(self.live[np.argsort(starts)])
        _tile_rows(centres.rows, slice(0, k), np.arange(k), live, fold, self.TILE_CELLS,
                   self.metric, counters)
        return gaps

    def update(self, centroids: np.ndarray, drift: np.ndarray, counters: CounterSet) -> int:
        """A later iteration, the centres having moved by ``drift``; returns
        the batches swept."""
        ub, lb, slack = self.ub, self.lb, self.gm.slack
        base = counters.snapshot()
        ub += drift[self.assign]  # upper_bound and lower_bound, in place
        ub *= 1 + slack
        lb *= 1 - slack
        lb -= group_max(drift, self.gm.group_of, self.gm.z)[:, None] * (1 + slack)
        np.maximum(lb, 0.0, out=lb)
        floor = lb.min(axis=0)
        rows = np.flatnonzero(ub >= floor)
        ub[rows] = _pair_distances(self.points, rows, centroids, self.assign[rows], self.metric)
        counters.bound_computations += rows.size
        rows = rows[ub[rows] >= floor[rows]]

        self.centroids, self.counters = centroids, counters
        self.centres = _Grouped.build(centroids, self.gm, self.plan, self.metric, self.centre)
        batches = self._search(rows)
        delta = counters.delta_since(base)
        # every pair not tiled is pruned
        counters.pruned_pairs += ub.size * centroids.shape[0] - delta.point_distances
        return batches

    def _search(self, rows, skip=None) -> int:
        """Sweep each of ``rows`` once (``_sweep``) against the centres of
        the groups whose ``lb`` reaches its exact ``ub``, less its ``skip``
        group; returns the batches swept. The reach mask is built group by
        group, so no gather of ``lb`` exceeds one of its rows."""
        self.exact = True
        return _sweep(self.rows, rows, self._reach(rows, skip), self.centres, self, self.metric,
                      self.counters, 1)

    def _reach(self, rows, skip) -> np.ndarray:
        """``_search``'s (rows, z) mask, which ``_sweep`` frees before the tiles."""
        ub, reach = self.ub[rows], np.zeros((self.gm.z, rows.size), dtype=bool)
        for g in self.live.tolist():
            np.less_equal(self.lb[g].take(rows), ub, out=reach[g])
        if skip is not None:
            reach[skip, np.arange(rows.size)] = False
        return reach.T

    def reduce(self, groups, cols, col_starts, ids, tile, err) -> None:
        """Fold a tile of the rows ``ids`` against the centres ``cols`` of
        ``groups``. A row whose ``ub`` is not exact yet first takes the
        centre of its least fast value, at its direct distance. A row with
        no other centre within ``ub``, in tile scale plus err, is decided;
        the others recompute those candidates by direct differencing and
        take the (distance, id) minimum. Each group's tile minimum over the
        centres but the row's old and new one, rooted less its error, is
        its ``lb`` there; a centre the row left rejoins its group's bound
        at its direct distance."""
        counters = self.counters
        if not self.exact:
            own = self.assign[ids] = cols[tile.argmin(axis=1)]
            self.ub[ids] = _pair_distances(self.points, ids, self.centroids, own, self.metric)
            counters.recomputed_distances += ids.size
        # centre-major: each group's minima are one reduction over adjacent
        # rows, many times faster than ``np.minimum.reduceat`` over short runs
        tile = np.ascontiguousarray(tile.T)
        col = np.full(self.centroids.shape[0], -1)  # each centre's tile row
        col[cols] = np.arange(cols.size)
        own = col[self.assign[ids]]
        here = (own >= 0).nonzero()[0]
        tile[own[here], here] = np.inf
        ub = self.ub[ids]
        reach = self.metric.to_tile(ub) + err
        held = (tile.min(axis=0) <= reach).nonzero()[0]
        if held.size:
            rows = ids[held]
            # only the held rows have entries within reach
            c, r = np.divmod((tile <= reach).ravel().nonzero()[0], ids.size)
            counters.recomputed_distances += r.size
            key = np.concatenate([r, held])
            tid = np.concatenate([cols[c], self.assign[rows]])
            direct = _pair_distances(self.points, ids[r], self.centroids, cols[c], self.metric)
            dist = np.concatenate([direct, ub[held]])
            order = np.lexsort((tid, dist, key))
            key = key[order]
            win = order[np.concatenate(([True], key[1:] != key[:-1]))]  # one per row, in order
            tid, dist = tid[win], dist[win]
            moved = (tid != self.assign[rows]).nonzero()[0]
            tile[col[tid[moved]], held[moved]] = np.inf
        low = np.empty((groups.size, ids.size))
        for j, (a, b) in enumerate(zip(col_starts.tolist(), [*col_starts[1:].tolist(), cols.size])):
            np.minimum.reduce(tile[a:b], axis=0, out=low[j])
        low, bound = self.metric.from_tile(low, err)
        self.lb[groups[:, None], ids] = lower_bound(low, bound, self.gm.slack)
        if held.size:
            went = rows[moved]
            left = self.gm.group_of[self.assign[went]]
            self.lb[left, went] = np.minimum(self.lb[left, went], self.ub[went])
            self.assign[rows], self.ub[rows] = tid, dist


def _take_rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``a[r, idx[r, j]]`` for every row r, by one flat take (cheaper than
    ``np.take_along_axis``, which builds a second index array)."""
    flat = idx + (np.arange(idx.shape[0]) * a.shape[1])[:, None]
    return np.ravel(a).take(flat)


class _TopK:
    """The K + 1 smallest fast values per source point, in tile scale, and
    their targets, ascending by value, ties in any order.

    Each row is filled exactly once, by ``reduce``, from its one tile
    against all of its candidate groups (``cut``, ``_sweep``). ``err``
    bounds the error of every kept value; the (K + 1)-th entry witnesses
    the boundary for ``settle``.
    """

    TILE_CELLS = 1 << 15  # 256 KB: a tile and its selection stay in cache and the heap

    def __init__(self, m: int, k: int, trg_gm: GroupModel):
        self.k, self.gm = k, trg_gm
        self.top_f = np.full((m, k + 1), np.inf)
        # one past any real target id: a placeholder names no target
        self.top_i = np.full((m, k + 1), trg_gm.n, dtype=np.int64)
        self.err = np.zeros(m)

    def cut(self, rows, centre, metric, counters: CounterSet) -> np.ndarray:
        """The (m, z) keep mask of the per-point cut (``filter_oneshot``),
        from the two-landmark bounds of each point's fast distances to the
        target landmarks (``MetricSpec.from_tile`` of its tile), their
        error bounds and each group's radius. Only the mask outlives a row
        block; the tiles are ``bound_computations``."""
        gm, m = self.gm, rows.shape[0]
        keep, seen = np.empty((m, gm.z), dtype=bool), CounterSet()

        def cut_block(groups, cols, col_starts, ids, tile, err) -> None:
            dist, bound = metric.from_tile(tile, err[:, None])
            lb, ub = two_landmark_bounds(dist, bound, gm.radius, gm.slack)
            del bound  # before the selection, where the cut's memory peaks
            keep[ids] = filter_oneshot(lb, ub, self.k, gm.sizes, counters)

        marks = _point_targets(gm.landmarks, centre, metric)
        _tile_rows(rows, slice(0, m), np.arange(m), marks, cut_block, self.TILE_CELLS, metric, seen)
        seen.bound_computations, seen.point_distances = seen.point_distances, 0
        counters.add(seen)
        return keep

    def reduce(self, groups, cols, col_starts, ids, tile, err) -> None:
        """Fill the rows ``ids`` from their one tile, whose columns are the
        targets ``cols``; with fewer than K + 1 columns the last entries
        stay placeholders."""
        keep = min(self.k + 1, tile.shape[1])
        sel = np.argpartition(tile, keep - 1, axis=1)[:, :keep]
        vals = _take_rows(tile, sel)
        order = np.argsort(vals, axis=1)
        self.top_f[ids, :keep] = _take_rows(vals, order)
        self.top_i[ids, :keep] = cols.take(_take_rows(sel, order))
        self.err[ids] = err

    def settle(self, src, trg, metric, counters: CounterSet) -> tuple[np.ndarray, np.ndarray]:
        """The exact top-K ids and distances, rows ordered by (distance, id).

        The distances of the first K entries are recomputed directly. Where
        the (K + 1)-th fast value less err lies above the largest of them
        in tile scale (``MetricSpec.to_tile``, which covers two direct
        sums rounding to one root), the first K entries are exactly the K
        nearest: every target left out, tiled or pruned, is surely
        farther, even after its root rounds. Only that value and the set of
        the first K ids are read, and neither depends on how ties were
        ordered; a tie at the boundary leaves its row open. Open rows are
        redone over all targets by the oracle, ``knn_topk``, in row blocks
        of bounded size.
        """
        k, n = self.k, trg.shape[0]
        ids = self.top_i[:, :k]
        dist = gathered_distance(src, trg, ids, metric, _DIRECT_BLOCK_ELEMS)
        redo = np.flatnonzero(self.top_f[:, k] - self.err <= metric.to_tile(dist.max(axis=1)))
        step = max(1, _DIRECT_BLOCK_ELEMS // (n * src.shape[1]))
        for start in range(0, redo.size, step):
            block = redo[start : start + step]
            ids[block], dist[block] = knn_topk(src[block], trg, metric, k)
        counters.recomputed_distances += ids.size + redo.size * n
        # settled rows come in fast-value order; reorder those the exact
        # values or a tie put out of (distance, id) order
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
    """Neighbor pairs within a radius, step after step of a self-set run,
    through a Verlet list (Verlet, Phys. Rev. 159, 1967): the pairs within
    ``cut``, the radius plus a skin, kept from one rebuild to the next.
    Distances are symmetric, so the run works on unordered pairs (Newton's
    third law; the half neighbor list of molecular dynamics).

    A rebuild sweeps at ``cut``. ``lb`` holds the group-pair lower bounds
    carried from rebuild to rebuild, the landmark bounds before the first;
    it stays exactly symmetric, so the cut keeps both orientations of a
    group pair alike. A rebuild resets the bounds of every kept pair, in
    both orientations, and tiles each kept unordered pair {a, b} only from
    its upper cell, b >= a: the lower cells' pairs are mirrored and count
    as reused. Each point reaches its group's upper row, and that of a
    non-empty group a starts at a itself, whose ``lb[a, a]`` is 0, so each
    batch is one group. Every tile's rows are thus one group a's, and only
    a's tiles fold bounds into either orientation of {a, b}: the minimum
    over its rows of each row's least b column, rooted less its error
    bound (``MetricSpec.from_tile``), widened by the bound slack. A member
    pair (i, j) is kept from the orientation with (group of i, i) before
    (group of j, j), so the diagonal cell yields its upper triangle. The
    list is every tiled pair whose fast value is at most ``cut`` in tile
    scale (``MetricSpec.to_tile``) + err, a superset of the pairs within
    ``cut``: every pair left out lies beyond ``cut`` in direct arithmetic.
    Its pairs are collected per row group, so concurrent batches never
    share a list, as ``id_dtype(n)``, int32 below 2^31 points;
    ``store_list`` keeps them once, as i < j sorted by (i, j), and frees
    the rest.

    Every step evaluates the listed pairs by direct differencing, the
    oracles' arithmetic taken coordinate-major (``neighbors``), keeps
    those within the radius and hands their squared Euclidean sums to the
    force rule. ``disp`` is each point's movement since the rebuild; by
    the trace bound |d_t(i, j) - d_0(i, j)| <= disp_i + disp_j, the list
    holds while the two largest leave ``cut`` above the radius.
    """

    TILE_CELLS = 1 << 18  # 2 MB of float64: 64-row tiles of a 4096-point n-body step

    def __init__(self, gm: GroupModel, radius: float, skin: float, metric: MetricSpec):
        self.gm = gm
        self.radius = radius
        self.cut = radius + skin
        self.metric = metric
        self.slack = gm.slack
        self.sizes = gm.sizes
        self.lb = None  # set by the run before step 1
        self.pairs: list[list[tuple[np.ndarray, np.ndarray]]] = []
        self.li = self.lj = self.below = None  # the list, set by store_list
        self.id_type = id_dtype(gm.n)
        self.disp = np.zeros(gm.n)

    def _first(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Mask of the pairs (i, j) with (group of i, i) < (group of j, j):
        one orientation of each unordered pair, none of a point with itself."""
        gi, gj = self.gm.group_of.take(i), self.gm.group_of.take(j)
        return (gi < gj) | ((gi == gj) & (i < j))

    def moved(self, drift: np.ndarray) -> None:
        """Add one step's movement to ``disp``, each sum rounded up as
        ``upper_bound`` does, so it bounds the true movement."""
        self.disp = upper_bound(self.disp + drift, self.slack)

    def holds(self) -> bool:
        """Whether no pair left out of the list can be within the radius:
        it lay beyond ``cut`` at the rebuild and has closed in by at most
        the two largest ``disp``, which ``lower_bound`` takes off ``cut``."""
        two = np.partition(self.disp, -2)[-2:] if self.disp.size > 1 else self.disp
        return bool(lower_bound(self.cut, two.sum(), self.slack) > self.radius)

    def rebuild(self, pos: np.ndarray, plan: LayoutPlan, counters: CounterSet, threads: int) -> int:
        """Decay the group-pair bounds by each group's largest ``disp``, cut
        them at ``cut``, sweep what is left at positions ``pos`` and store
        the list; returns the source batches swept. ``pos`` must lie in
        the metric's domain, which the run checks as the points move."""
        gm = self.gm
        drift = group_max(self.disp, gm.group_of, gm.z)
        thr = np.full(gm.z, self.cut)
        upper = self.resolve(filter_iterative(gm, self.lb, thr, drift, counters), counters)
        centre = pos.mean(axis=0)
        grouped = _Grouped.build(pos, gm, plan, self.metric, centre)
        batches = _sweep(fast_rows(pos, centre, self.metric), np.arange(gm.n), upper[gm.group_of],
                         grouped, self, self.metric, counters, threads)
        self.store_list()
        self.disp[:] = 0.0
        return batches

    def resolve(self, keep: np.ndarray, counters: CounterSet) -> np.ndarray:
        """Start a rebuild: reset the bounds of the group pairs the keep
        mask ``keep`` holds and return its upper cells for the tiles to
        fold into; the lower ones count as reused."""
        self.pairs = [[] for _ in range(self.gm.z)]
        # both orientations: a lower cell keeps no stale bound
        self.lb[keep] = np.inf  # vacuous for a pair with an empty group
        counters.reused_pairs += int(self.sizes @ (np.tril(keep, -1) @ self.sizes))
        return np.triu(keep)

    def reduce(self, groups, cols, col_starts, ids, tile, err) -> None:
        """Keep, in one orientation, every entry at most ``cut`` in tile
        scale + err, for the list's direct evaluation to decide, and fold
        each cell's tile minimum into the bounds of both orientations.

        The rows are one group a's, each batch being one group. The target
        groups are distinct, so each fold touches each cell once."""
        a = self.gm.group_of[ids[0]]
        flat = np.flatnonzero(tile <= (self.metric.to_tile(self.cut) + err)[:, None])
        hit_r, hit_c = np.divmod(flat, tile.shape[1])
        hit_i, hit_j = ids.take(hit_r), cols.take(hit_c)
        first = self._first(hit_i, hit_j)
        self.pairs[a].append(
            (hit_i[first].astype(self.id_type), hit_j[first].astype(self.id_type))
        )
        dist, bound = self.metric.from_tile(np.minimum.reduceat(tile, col_starts, axis=1),
                                            err[:, None])
        low = lower_bound((dist - bound).min(axis=0), 0.0, self.slack)
        self.lb[a, groups] = np.minimum(self.lb[a, groups], low)
        self.lb[groups, a] = np.minimum(self.lb[groups, a], low)

    def store_list(self) -> None:
        """Store the rebuild's pairs once, as i < j sorted by (i, j), in
        ``id_type``, and ``below``, the argsort of the unique keys j·n + i,
        which orders them by (j, i); free the sweep's pairs. Only the sort
        keys are int64, and one key array is reused for both."""
        parts = [p for group in self.pairs for p in group]
        self.pairs = []
        empty = np.empty(0, dtype=self.id_type)
        one = np.concatenate([empty, *(p[0] for p in parts)])
        other = np.concatenate([empty, *(p[1] for p in parts)])
        del parts
        n = self.gm.n
        key = np.minimum(one, other).astype(np.int64)
        key *= n
        key += np.maximum(one, other)
        del one, other
        key.sort()
        self.li = (key // n).astype(self.id_type)
        key %= n
        self.lj = key.astype(self.id_type)
        key *= n
        key += self.li
        self.below = np.argsort(key).astype(self.id_type)

    def neighbors(self, cols: np.ndarray, counters: CounterSet, rebuilt: bool):
        """The step's neighbor pairs i < j sorted by (i, j), their squared
        Euclidean distances r2, and per point its sorted neighbor ids as one
        ``NeighborLists`` CSR, ids in ``id_type``: the listed pairs within
        the radius, at the positions ``cols``, stored coordinate-major as
        one contiguous (d, n) array.

        Each block of listed pairs gathers its i and j columns from
        ``cols``, one ``take`` each, and differences them into a (d, m)
        block, one contiguous row per coordinate. Its r2 is ``column_sum``
        of the squared differences, bitwise the oracles' ``np.add.reduce``
        over a pair's row, and under unweighted L2 its root decides; any
        other metric decides on ``coordinate_distance`` of the same
        differences, bitwise ``difference_distance``. The force rule takes
        the kept pairs' r2.

        On a list step each listed pair counts as a point distance, its
        other orientation as reused and every other ordered pair as pruned;
        a rebuild's sweep has counted its pairs, so there they count as
        recomputed. A point's list is its partners below it, from the kept
        pairs in (j, i) order, then those above it, from its run of kept
        (i, j) pairs: one counting scatter, no sort."""
        (d, n), li, lj = cols.shape, self.li, self.lj
        euclid = self.metric.kind == "L2" and not self.metric.weighted
        r2, keep = np.empty(li.size), np.empty(li.size, dtype=bool)
        step = max(1, _DIRECT_BLOCK_ELEMS // (4 * d))
        for start in range(0, li.size, step):
            at = slice(start, start + step)
            x = cols.take(li[at], axis=1)
            x -= cols.take(lj[at], axis=1)
            r2[at] = column_sum(x * x)
            dist = np.sqrt(r2[at]) if euclid else coordinate_distance(x, self.metric)
            keep[at] = dist <= self.radius
        if rebuilt:
            counters.recomputed_distances += li.size
        else:
            counters.point_distances += li.size
            counters.reused_pairs += li.size
            counters.pruned_pairs += n * n - 2 * li.size
        pair_i, pair_j, r2 = li.compress(keep), lj.compress(keep), r2.compress(keep)
        down = self.below.compress(keep.take(self.below))
        above, below = np.bincount(pair_i, minlength=n), np.bincount(pair_j, minlength=n)
        # pair_i is each point's run of ``above`` partners in turn, and
        # lj.take(down) its run of ``below``, so the offsets repeat per point
        ids = np.empty(2 * pair_i.size, dtype=self.id_type)
        ids[np.arange(pair_i.size) + np.repeat(np.cumsum(below), above)] = pair_j
        ids[np.arange(down.size) + np.repeat(np.cumsum(above) - above, below)] = li.take(down)
        offsets = np.concatenate(([0], np.cumsum(above + below)))
        return pair_i, pair_j, r2, NeighborLists(offsets=offsets, ids=ids)


# -- shared run bookkeeping -------------------------------------------------


def _check_kind(plan: ExecutionPlan, expected: str) -> None:
    if plan.pipeline_kind != expected:
        raise UnsupportedProgramError(
            f"plan is {plan.pipeline_kind}, runner expects {expected}"
        )


def _stats(it: int, delta: CounterSet, n1: int, n2: int, batches: int, changed=None):
    return IterationStats(
        iteration=it,
        point_distances=delta.point_distances,
        bound_computations=delta.bound_computations,
        pruned_pairs=delta.pruned_pairs,
        all_inside_pairs=delta.all_inside_pairs,
        reused_pairs=delta.reused_pairs,
        measured_saving=measured_saving(delta.point_distances, n1, n2),
        source_batches=batches,
        changed=changed,
    )


def _result(plan, outputs, per_iter, counters, t0, layout, oracle_s) -> RunResult:
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
    """Lloyd iteration, assigning through Yinyang bounds (``_Yinyang``)
    against ``design.n_trg_grp`` groups of the centres, formed at their
    start. Assignment is the nearest cluster under (distance, id)
    tie-break; centroids are member means; empty clusters keep their
    position. Exit on unchanged assignments or the iteration cap.
    """
    _check_kind(plan, "iterative_two_set")
    t0 = time.perf_counter()
    metric = MetricSpec.from_name(plan.metric_name, weights=weights)
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
    metric.check_domain(points.values, centroids)

    counters = CounterSet()
    # cluster-id groups, and so their packing, fixed across iterations
    clusters = Dataset.from_values(centroids)
    z_trg = min(config.design.n_trg_grp, k)
    trg_gm = build_groups(clusters, z_trg, config.seed + 2, metric, counters)
    trg_lp = pack_intra_group(clusters, trg_gm)
    nearest = _Yinyang(points.values, metric, trg_gm, trg_lp)

    max_iter = plan.max_iter if plan.max_iter is not None else config.status_iter_cap
    per_iter: list[IterationStats] = []
    assignments = None
    oracle_centroids = centroids.copy() if config.oracle_mode == "shadow" else None
    oracle_s = 0.0

    for it in range(1, max_iter + 1):
        base = counters.snapshot()
        if it == 1:
            calls = nearest.first(centroids, counters)
        else:
            drifts = rowwise_distance(prev_centroids, centroids, metric)
            counters.bound_computations += k
            if float(drifts.max()) == 0.0:  # every assignment and bound stands
                counters.reused_pairs += n * k
                calls = 0
            else:
                calls = nearest.update(centroids, drifts, counters)
        new_assign = nearest.assign.copy()
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
        per_iter.append(_stats(it, delta, n, k, calls, changed))
        if changed == 0:
            break

    outputs = {"assignments": assignments, "centroids": centroids}
    return _result(plan, outputs, per_iter, counters, t0, trg_lp, oracle_s)


# -- one-shot two-set (top-K join) ----------------------------------------


def run_knn_join(
    plan: ExecutionPlan,
    src: Dataset,
    trg: Dataset,
    config: RunConfig,
    weights: np.ndarray | None = None,
) -> RunResult:
    """Exact top-K join: group the targets alone, drop per source point
    the target groups its landmark bounds rule out (``_TopK.cut``) and
    sweep (``_sweep``) each point once against all of its candidate
    groups, the points with equal candidates as one batch; ``_TopK.reduce``
    takes each row's K + 1 straight from its one tile, and ``settle`` makes
    the result exact. Self-matches are kept (a point joined against its
    own set finds itself at distance zero)."""
    _check_kind(plan, "oneshot_two_set")
    t0 = time.perf_counter()
    metric = MetricSpec.from_name(plan.metric_name, weights=weights)
    if src.d != trg.d:
        raise RangeError(f"source dim {src.d} != target dim {trg.d}")
    metric.check_domain(src.values, trg.values)
    k = int(plan.select.value)
    if k < 1 or k > trg.n:
        raise InvalidQueryError(f"top-K count {k} out of range for {trg.n} targets")

    counters = CounterSet()
    m, n = src.n, trg.n
    z_trg = min(config.design.n_trg_grp, n)
    trg_gm = build_groups(trg, z_trg, config.seed + 2, metric, counters)
    trg_lp = pack_intra_group(trg, trg_gm)
    centre = src.values.mean(axis=0)
    rows = fast_rows(src.values, centre, metric)
    g_trg = _Grouped.build(trg.values, trg_gm, trg_lp, metric, centre)
    topk = _TopK(m, k, trg_gm)
    batches = _sweep(rows, np.arange(m), topk.cut(rows, centre, metric, counters), g_trg, topk,
                     metric, counters, config.thread_count)
    ids, dists = topk.settle(src.values, trg.values, metric, counters)
    result = TopKResult(ids=ids, distances=dists)

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

    stats = _stats(1, counters, m, n, batches)
    return _result(plan, {"topk": result}, [stats], counters, t0, trg_lp, oracle_s)


# -- iterative self-set (radius neighbors with movement) -------------------


def default_force_rule(
    pos: np.ndarray, pair_i: np.ndarray, pair_j: np.ndarray, r2: np.ndarray, softening: float
) -> np.ndarray:
    """Softened inverse-square attraction over the unordered neighbor pairs
    i < j, sorted by (i, j), unit mass. A demonstration update rule;
    neighbor search is the verified part, the physics is not checked.

    ``r2`` holds each pair's squared Euclidean distance, the sum
    ``np.add.reduce`` takes of its squared differences; the Verlet list
    pass has computed it, and the force is Euclidean under every metric.
    Each pair's term is computed once and added to i, and negated to j
    (Newton's third law; direct differencing makes the term of (j, i)
    exactly the negation). Each point's terms are added in ascending
    partner order from 0, so the result is bitwise that of adding every
    term of both orientations in (i, j) order.

    The rule works coordinate-major: each coordinate's terms come from
    1-D gathers of one contiguous column. ``pos`` may be the transpose of
    a contiguous (d, n) array, as the run passes it, so taking the columns
    copies nothing. Per kept pair it holds the intp index of both
    orientations and their 2 weights (16 bytes each), the scale (8) and
    one gather (8), 48 bytes at most."""
    n, p = len(pos), pair_i.size
    acc = np.empty(pos.shape)
    scale = (r2 + softening * softening) ** -1.5
    # a point's partners below it (the j side, ascending i), then above it
    to = np.concatenate((pair_j, pair_i), dtype=np.intp)
    j, i = to[:p], to[p:]
    weights = np.empty(2 * p)
    x = weights[p:]  # the terms added to i; weights[:p] their negations, to j
    for c, col in enumerate(np.ascontiguousarray(pos.T)):
        # "clip" spares the two copies of ``out`` that take makes under its
        # default "raise"; an id out of range still fails in the bincount
        np.take(col, j, out=x, mode="clip")
        x -= col.take(i)
        x *= scale
        np.negative(x, out=weights[:p])
        acc[:, c] = np.bincount(to, weights=weights, minlength=n)
    return acc


def _first_difference(got: NeighborLists, want: NeighborLists) -> int:
    """The first point whose neighbor lists differ between two unequal CSRs
    of the same points: before the first point whose counts differ, the
    lists line up, so the first differing id there names the point."""
    sized = np.diff(got.offsets) != np.diff(want.offsets)
    i = int(np.argmax(sized)) if sized.any() else len(got)
    end = int(got.offsets[i])
    bad = np.flatnonzero(got.ids[:end] != want.ids[:end])
    return int(np.searchsorted(got.offsets, bad[0], side="right")) - 1 if bad.size else i


def run_nbody(
    plan: ExecutionPlan,
    particles: Dataset,
    config: RunConfig,
    weights: np.ndarray | None = None,
) -> RunResult:
    """Fixed-radius neighbor search per step through a certified Verlet
    list (``_Radius``) with skin s = ``_SKIN_FRACTION`` times the radius.

    Step 1 rebuilds: it cuts the landmark group-pair lower bounds at the
    radius plus s and sweeps the group pairs kept, each unordered one tiled
    once from its upper cell, one source group per batch: the cut to upper
    cells gives each non-empty group a candidate list no other shares. A
    later step adds every point's movement to its displacement since the
    rebuild, and rebuilds, decaying the bounds by each group's
    largest displacement first, only when the two largest could have
    brought a pair from beyond the radius plus s within the radius. Every
    step evaluates the listed pairs directly, and the force rule takes each
    unordered neighbor pair once, with the squared sum computed for it. No
    step writes ``pos`` in place, so the trajectory keeps each step's array.
    Each step also copies its positions once coordinate-major, a contiguous
    (d, n) ``cols``: the list pass, the force rule, the domain check and
    the drift gather from it, one coordinate at a time; a rebuild's sweep
    and the trajectory keep the row-major ``pos``.

    ``outputs["neighbors"]`` holds one ``NeighborLists`` CSR per step, ids
    int32 below 2^31 points, which the shadow check compares array to array
    with the oracle's.
    """
    _check_kind(plan, "iterative_self_set")
    t0 = time.perf_counter()
    metric = MetricSpec.from_name(plan.metric_name, weights=weights)
    radius = float(plan.select.value)
    if not radius > 0:
        raise RangeError("radius must be positive")
    n = particles.n
    # the force rule sums squared Euclidean differences under every metric
    domains = [metric] if metric.kind == "L2" and not metric.weighted else [metric, MetricSpec()]
    for spec in domains:
        spec.check_domain(particles.values)

    counters = CounterSet()
    z = min(config.design.n_src_grp, n)
    gm = build_groups(particles, z, config.seed + 1, metric, counters)
    lplan = pack_intra_group(particles, gm)

    pos = particles.values.copy()
    cols = np.ascontiguousarray(pos.T)  # each step's positions, coordinate-major
    vel = np.zeros_like(pos)
    within = _Radius(gm, radius, radius * _SKIN_FRACTION, metric)

    neighbors_per_step: list[NeighborLists] = []
    trajectories: list[np.ndarray] = [pos]  # each step makes a new pos
    per_iter: list[IterationStats] = []
    prev_drift: np.ndarray | None = None
    oracle_s = 0.0

    for step in range(1, plan.max_iter + 1):
        base = counters.snapshot()
        if step == 1:
            within.lb = init_oneshot_state(gm, gm, counters)
        else:
            counters.bound_computations += n  # drift distances recorded at integration
            within.moved(prev_drift)
        rebuild = step == 1 or not within.holds()
        batches = within.rebuild(pos, lplan, counters, config.thread_count) if rebuild else 0
        pair_i, pair_j, r2, lists = within.neighbors(cols, counters, rebuild)
        neighbors_per_step.append(lists)

        if config.oracle_mode == "shadow":
            t_oracle = time.perf_counter()
            want = radius_neighbors(pos, metric, radius)
            same = np.array_equal(lists.offsets, want.offsets)
            if not (same and np.array_equal(lists.ids, want.ids)):
                i = _first_difference(lists, want)
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
        # step's displacements.
        acc = default_force_rule(cols.T, pair_i, pair_j, r2, config.softening)
        vel = vel + acc * config.dt
        new_pos = pos + vel * config.dt
        new_cols = np.ascontiguousarray(new_pos.T)
        # both sets at once: a uniform shift leaves each one's spread as it
        # was, yet its drift may overflow
        for spec in domains:
            spec.check_domain(cols.T, new_cols.T)
        prev_drift = coordinate_distance(cols - new_cols, metric)
        pos, cols = new_pos, new_cols
        trajectories.append(pos)
        per_iter.append(_stats(step, counters.delta_since(base), n, n, batches))

    outputs = {"neighbors": neighbors_per_step, "trajectories": trajectories}
    return _result(plan, outputs, per_iter, counters, t0, lplan, oracle_s)


def run_plan(
    plan: ExecutionPlan,
    src: Dataset,
    trg: Dataset | None = None,
    config: RunConfig | None = None,
    weights: np.ndarray | None = None,
) -> RunResult:
    """Dispatch a lowered plan to its pipeline runner.

    Two-set plans take ``trg`` as the initial clusters (iterative) or the
    join's target set (one-shot; defaults to ``src``). Self-set plans take
    ``src`` alone.
    """
    config = config or RunConfig()
    if plan.metric_name.endswith("L1"):
        # load the L1 tiles' scipy (``kernel._cdist``) before a runner's clock starts
        import scipy.spatial.distance  # noqa: F401
    if plan.pipeline_kind == "iterative_two_set":
        init = trg.values if trg is not None else None
        return run_kmeans(plan, src, config, initial_clusters=init, weights=weights)
    if plan.pipeline_kind == "oneshot_two_set":
        return run_knn_join(plan, src, trg if trg is not None else src, config, weights=weights)
    if plan.pipeline_kind == "iterative_self_set":
        if trg is not None:
            raise UnsupportedProgramError("self-set pipelines take a single dataset")
        return run_nbody(plan, src, config, weights=weights)
    raise UnsupportedProgramError(f"unknown pipeline kind {plan.pipeline_kind}")
