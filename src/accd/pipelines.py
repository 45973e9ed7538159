"""End-to-end pipeline execution.

Three pipeline shapes are supported: iterative two-set (cluster-style),
one-shot two-set (top-K join), and iterative self-set (radius neighbors
with movement). Each run tallies every avoided or executed point-pair and
can shadow a brute-force oracle that must agree exactly.

k-means (``_Yinyang``) groups only its centres and bounds each point
against each centre group. Iteration 1 seeds those bounds from each
point's distances to the centre groups' landmarks and from the centres'
distances to each other, so it tiles a point only against its nearest
group and the groups they leave open. The join and the n-body step group
both sides and wire bound filtering and layout packing, which makes each
group's members one slice of its kernel rows, around one tile engine,
``_sweep``. It tiles each row of a source batch once, against all of the
batch's candidate target groups' members, concatenated, and hands the
tile to the pipeline's reducer. Its bounds prune whole group pairs only:
a tile has no per-point control inside it.

* ``_TopK`` (one-shot two-set) takes each row's K + 1 smallest fast
  values, ascending, ties in any order, straight from the row's one tile;
  ``settle`` makes them exact and hands the rows a tie or rounding leaves
  open to the oracle, ``oracles.knn_topk``. The join orders its source
  groups so that groups with the same candidate list sit next to each
  other, and sweeps them in runs of such groups. When the landmark cut
  prunes nothing, every group shares one candidate list, so the sweep is
  one batch that tiles every row against every target.
* ``_Radius`` (iterative self-set) works on unordered pairs, as
  distances are symmetric, and sweeps only to rebuild a Verlet list: the
  pairs within the radius plus a skin. Its group-pair
  bounds start from the landmark bounds of ``gti.init_oneshot_state``,
  are lower bounds only, stay exactly symmetric and are cut at the radius
  plus the skin at every rebuild, step 1 included; each kept unordered
  group pair is tiled once, from its upper cell, and its other orientation
  counts as reused. During the sweep it keeps each tile's pairs within the
  cut plus the tile's error bound, each unordered pair once, and folds the
  tile's minima into the bounds of both orientations of each group pair
  the tile covers (a tile's rows are one group's); after it, it stores
  them as the list. Every step evaluates the listed pairs by direct
  differencing, keeps those within the radius and scatters them into
  both directions' neighbor lists. The
  list is rebuilt only when the points' movement since the last rebuild
  could have brought a pair left out of it within the radius. The force
  rule takes each unordered pair once too, with the squared Euclidean sum
  that step's list pass computed for it, so no pair is differenced twice.

Numerical discipline. Kernel tiles are fast, not the oracles' arithmetic,
and BLAS may round one pair differently in tiles of different shapes, so
each tile row carries a bound on its error (``kernel.tile_distances``).
Reducers decide on fast values only where that bound settles a decision
and recompute what it leaves open, and every reported distance, by direct
differencing (``metrics.rowwise_distance``, the oracles' arithmetic).
Every pruning bound carries the rounding slack of ``gti``. Outputs
therefore equal the oracles' bitwise, in any packing order and on any
thread count. Pair counters follow the bounds; a bound taken from fast
values (a tile extreme) can move in its last bits with the tile's shape,
which changes a count only if it lands within those bits of a
threshold. All cross-point reductions (centroid means,
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
from .dataset import Dataset, TopKResult, rowwise_lexsort
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
from .metrics import MetricSpec, difference_distance, gathered_distance, rowwise_distance
from .oracles import group_means, knn_topk, nearest_assign, radius_neighbors

DEFAULT_DESIGN = DesignConfig(n_src_grp=64, n_trg_grp=8)
# Terms per block of a recompute by direct differencing (the top-K settle,
# the k-means winners, the n-body list): 512 KB of float64.
_DIRECT_BLOCK_ELEMS = 1 << 16
# The n-body Verlet list's skin, as a fraction of the radius.
_SKIN_FRACTION = 1 / 32


@dataclass
class RunConfig:
    design: DesignConfig = DEFAULT_DESIGN  # k-means, grouping no points, ignores n_src_grp
    seed: int = 0
    oracle_mode: str = "off"  # "off" | "shadow"
    # threads of the join's and the n-body sweeps' source batches; k-means
    # runs on one
    thread_count: int = 1
    status_iter_cap: int = 1000  # hard stop for status-exit iteration
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
    source_batches: int  # k-means: its kernel calls
    source_groups: int  # k-means: its points, each its own group
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
    layout: LayoutPlan  # the source set's packing; k-means: the centres'
    oracle_s: float = 0.0  # time inside the shadow-oracle checks


@dataclass
class _Grouped:
    """Group-wise access to one point set's kernel rows, packed by its
    layout plan: ``rows``/``sq`` are ``kernel.fast_rows`` of the values in
    packed order, so each group's members, in ascending original-id order,
    are one slice.
    """

    rows: np.ndarray
    sq: np.ndarray | None  # squared norms of ``rows`` (L2 only), same order
    gm: GroupModel
    plan: LayoutPlan

    @classmethod
    def build(cls, values, gm: GroupModel, plan: LayoutPlan, metric, centre):
        rows, sq = fast_rows(values[plan.point_perm], centre, metric)
        return cls(rows=rows, sq=sq, gm=gm, plan=plan)

    def take(self, groups: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(ids, rows, sq) of the members of ``groups``, in that order: a
        slice of the packing when the groups lie next to each other in it,
        else a gather."""
        spans = [self.plan.group_slices[g] for g in groups]
        if all(a[1] == b[0] for a, b in zip(spans, spans[1:])):
            at = slice(spans[0][0], spans[-1][1])
            ids = self.plan.point_perm[at]
        else:
            ids = np.concatenate([self.gm.membership[g] for g in groups])
            at = self.plan.inverse_perm[ids]
        return ids, self.rows[at], self.sq[at] if self.sq is not None else None


def _source_batches(order: np.ndarray, cm: CandidateMatrix) -> list[list[int]]:
    """Runs of adjacent groups (in processing order) with identical
    candidate lists."""
    return [list(run) for _, run in itertools.groupby(order.tolist(), key=cm.key)]


def _pair_distances(a, i, b, j, metric: MetricSpec) -> np.ndarray:
    """Direct distances of the pairs (a[i[p]], b[j[p]]), gathered in blocks:
    ``rowwise_distance`` holds four arrays of a block's terms."""
    out = np.empty(i.size)
    step = max(1, _DIRECT_BLOCK_ELEMS // (4 * a.shape[1]))
    for start in range(0, i.size, step):
        at = slice(start, start + step)
        out[at] = rowwise_distance(a.take(i[at], axis=0), b.take(j[at], axis=0), metric)
    return out


def _map_ordered(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# -- the tile engine ------------------------------------------------------


def _sweep(
    src: _Grouped, trg: _Grouped, cm: CandidateMatrix, batches: list[list[int]],
    reducer, metric: MetricSpec, threads: int,
) -> CounterSet:
    """Tile each batch's rows against its first group's candidate target
    groups (empty groups left out), all of them at once: their members,
    concatenated, in row blocks of at most ``reducer.TILE_CELLS`` cells,
    one tile per row.

    The reducer gets ``reduce(groups, cols, col_starts, ids, tile, err)``:
    the tile's target groups, column ids (the groups' members,
    concatenated) and each group's first column, rows' ids, fast values
    and per-row error bound. Batches touch disjoint rows, so they may run
    on ``threads`` workers. Returns the tile tallies.
    """
    trg_sizes = trg.gm.sizes

    def sweep_batch(batch: list[int]) -> CounterSet:
        local = CounterSet()
        ids, rows, sq_rows = src.take(batch)
        groups = cm.targets[batch[0]]
        groups = groups[trg_sizes[groups] > 0]
        if ids.size == 0 or groups.size == 0:
            return local
        cols, col_rows, sq_cols = trg.take(groups.tolist())
        sizes = trg_sizes[groups]
        col_starts = np.cumsum(sizes) - sizes
        step = max(1, reducer.TILE_CELLS // cols.size)
        for i in range(0, ids.size, step):
            at = slice(i, i + step)
            sq = sq_rows[at] if sq_rows is not None else None
            tile, err = tile_distances(rows[at], col_rows, metric, local, sq, sq_cols)
            reducer.reduce(groups, cols, col_starts, ids[at], tile, err)
        return local

    total = CounterSet()
    for local in _map_ordered(sweep_batch, batches, threads):
        total.add(local)
    return total


class _Yinyang:
    """Nearest centre per point under (distance, id), with the bounds of
    Yinyang k-means (Ding et al., ICML 2015). Only the centres are grouped
    (``gm``, packed by ``plan``). Each point i keeps its centre
    ``assign[i]``, ``ub[i]`` at least its direct distance to it, and
    ``lb[g, i]`` at most its direct distance to every other centre of
    group g (``inf`` where g holds none), group-major.

    The groups are built on iteration 1's centres, so their landmarks and
    radii bound that iteration's distances: ``first`` seeds ``lb`` from the
    points' distances to the landmarks, tiles each point against its
    nearest landmark group alone and tightens ``lb`` by the centres'
    distances to each other before the group search. Later iterations
    decay the bounds by the centres' drift, with the slack of ``gti``, and
    skip a point whose ``ub`` lies below every ``lb``, also once ``ub`` is
    tightened to the direct distance. Both search the rest group by group
    (``_search``). Every kernel call takes a block of rows sized so that
    the tile and the gather of its rows fit ``TILE_CELLS`` together.
    """

    TILE_CELLS = 1 << 16  # 512 KB of float64 per tile and gather of its rows

    def __init__(self, points: np.ndarray, metric: MetricSpec, gm: GroupModel, plan: LayoutPlan):
        n = points.shape[0]
        self.points, self.metric, self.gm, self.plan = points, metric, gm, plan
        self.centre = points.mean(axis=0)
        self.rows, self.sq = fast_rows(points, self.centre, metric)
        self.assign, self.ub = np.empty(n, dtype=np.int64), np.empty(n)
        self.lb = np.empty((gm.z, n))
        # each centre's column in the tiles of its group
        starts = [plan.group_slices[g][0] for g in gm.group_of.tolist()]
        self.col = plan.inverse_perm - np.array(starts, dtype=np.int64)

    def _step(self, cols: int) -> int:
        """Rows per kernel call against ``cols`` centres."""
        return max(1, self.TILE_CELLS // (cols + self.points.shape[1]))

    def _tile(self, rows, centres: _Grouped, g: int, counters: CounterSet):
        """Tile ``rows`` against the centres of group g: (their ids, the
        tile, its err)."""
        ids, c_rows, c_sq = centres.take([g])
        sq = None if self.sq is None else self.sq[rows]
        tile, err = tile_distances(self.rows[rows], c_rows, self.metric, counters, sq, c_sq)
        return ids, tile, err

    def first(self, centroids: np.ndarray, counters: CounterSet) -> int:
        """Iteration 1, on the centres the groups were built on; returns
        the kernel calls. Each point's distances to the z landmarks seed
        ``lb[g]`` at that distance less group g's radius, and name the
        point's nearest non-empty group. The point is tiled against that
        group first: it starts from the group's centre of least fast value,
        at its direct distance, and ``_reduce`` settles it and sets its
        ``lb`` there from the tile. Elkan's bound (ICML 2003), the distance
        from the point's centre to a group's nearest other centre less
        ``ub``, then tightens every ``lb``, and ``_search`` tiles the other
        groups whose ``lb`` reaches ``ub``, as in ``update``. The landmark
        and centre-to-centre tiles count as ``bound_computations``, not as
        point distances."""
        n, slack, gm = self.points.shape[0], self.gm.slack, self.gm
        base, seen = counters.snapshot(), CounterSet()
        marks, marks_sq = fast_rows(gm.landmarks, self.centre, self.metric)
        empty = gm.sizes == 0
        near = np.empty(n, dtype=np.int64)
        z_step = self._step(gm.z)
        for start in range(0, n, z_step):
            at = slice(start, start + z_step)
            sq = None if self.sq is None else self.sq[at]
            tile, err = tile_distances(self.rows[at], marks, self.metric, seen, sq, marks_sq)
            tile[:, empty] = np.inf  # a group without centres bounds nothing
            near[at] = tile.argmin(axis=1)
            tile -= err[:, None]  # lower_bound(tile - err, radius, slack), in place
            tile *= 1 - slack
            tile -= gm.radius * (1 + slack)
            np.maximum(tile, 0.0, out=tile)
            self.lb[:, at] = tile.T

        centres = _Grouped.build(centroids, gm, self.plan, self.metric, self.centre)
        order = np.argsort(near, kind="stable")
        ends = np.searchsorted(near, np.arange(gm.z + 1), sorter=order)
        for g in np.flatnonzero(~empty).tolist():
            rows = order[ends[g] : ends[g + 1]]
            step = self._step(gm.sizes[g])
            for start in range(0, rows.size, step):
                block = rows[start : start + step]
                ids, tile, err = self._tile(block, centres, g, counters)
                own = self.assign[block] = ids[tile.argmin(axis=1)]
                self.ub[block] = _pair_distances(self.points, block, centroids, own, self.metric)
                counters.recomputed_distances += block.size
                self._reduce(g, block, ids, tile, err, centroids, counters)

        gaps = self._gaps(centres, seen)
        for start in range(0, n, z_step):
            at = slice(start, start + z_step)
            low = gaps[self.plan.inverse_perm[self.assign[at]]]
            low *= 1 - slack  # lower_bound(gap, ub, slack), in place
            low -= (self.ub[at] * (1 + slack))[:, None]
            np.maximum(self.lb[:, at], low.T, out=self.lb[:, at])
        seen.bound_computations, seen.point_distances = seen.point_distances, 0
        counters.add(seen)
        self._search(np.arange(n), centres, centroids, counters, skip=near)
        delta = counters.delta_since(base)
        # every pair not tiled is pruned
        counters.pruned_pairs += n * centroids.shape[0] - delta.point_distances
        return delta.tiles_executed

    def _gaps(self, centres: _Grouped, counters: CounterSet) -> np.ndarray:
        """Per centre, in packed order, and group g: at most the centre's
        direct distance to every other centre of g (``inf`` where g holds
        none), from fast tiles of the centres against each other."""
        gm, k = self.gm, centres.rows.shape[0]
        groups = np.flatnonzero(gm.sizes)
        starts = np.array([self.plan.group_slices[g][0] for g in groups.tolist()], dtype=np.int64)
        by_start = np.argsort(starts)  # reduceat takes the column runs in order
        groups, starts = groups[by_start], starts[by_start]
        gaps = np.full((k, gm.z), np.inf)
        step = self._step(k)
        for start in range(0, k, step):
            at = slice(start, start + step)
            sq = None if centres.sq is None else centres.sq[at]
            tile, err = tile_distances(
                centres.rows[at], centres.rows, self.metric, counters, sq, centres.sq
            )
            rows = np.arange(tile.shape[0])
            tile[rows, rows + start] = np.inf  # a centre bounds only the others
            tile -= err[:, None]
            gaps[at, groups] = np.minimum.reduceat(tile, starts, axis=1)
        return gaps

    def update(self, centroids: np.ndarray, drift: np.ndarray, counters: CounterSet) -> int:
        """A later iteration, the centres having moved by ``drift``; returns
        the kernel calls."""
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

        centres = _Grouped.build(centroids, self.gm, self.plan, self.metric, self.centre)
        self._search(rows, centres, centroids, counters)
        delta = counters.delta_since(base)
        # every pair not tiled is pruned
        counters.pruned_pairs += ub.size * centroids.shape[0] - delta.point_distances
        return delta.tiles_executed

    def _search(self, rows, centres: _Grouped, centroids, counters: CounterSet, skip=None) -> None:
        """Tile ``rows``, whose ``ub`` is exact, group by group in id order:
        each non-empty group g against the rows whose ``lb[g]`` reaches
        their ``ub`` by then, less those whose ``skip`` entry (a group
        already tiled, one per point) is g."""
        sizes = self.gm.sizes
        for g in np.flatnonzero(sizes).tolist():
            reach = self.lb[g, rows] <= self.ub[rows]
            if skip is not None:
                reach &= skip[rows] != g
            reach = rows[reach]
            step = self._step(sizes[g])
            for start in range(0, reach.size, step):
                block = reach[start : start + step]
                ids, tile, err = self._tile(block, centres, g, counters)
                self._reduce(g, block, ids, tile, err, centroids, counters)

    def _reduce(self, g, block, cols, tile, err, centroids, counters: CounterSet) -> None:
        """Fold a tile of the rows ``block``, whose ``ub`` is exact, against
        the centres ``cols`` of group g, in packed order. A row's own centre
        is set to ``inf`` in the tile, as its direct distance is ``ub``. A
        row with no other centre within ``ub`` + err is decided, and its
        tile minimum, less err, is its new ``lb[g]``. The others recompute
        their candidates by direct differencing and take the (distance, id)
        minimum; a row that moves leaves its new centre out of ``lb[g]``,
        and its old centre rejoins its group's bound at its direct
        distance."""
        slack, own = self.gm.slack, self.assign[block]
        here = np.flatnonzero(self.gm.group_of[own] == g)
        tile[here, self.col[own[here]]] = np.inf
        low = tile.min(axis=1)
        self.lb[g, block] = lower_bound(low, err, slack)
        held = np.flatnonzero(low <= self.ub[block] + err)
        if held.size == 0:
            return
        rows = block[held]
        r, c = np.nonzero(tile[held] <= (self.ub[rows] + err[held])[:, None])
        counters.recomputed_distances += r.size
        key = np.concatenate([r, np.arange(rows.size)])
        tid = np.concatenate([cols[c], self.assign[rows]])
        direct = _pair_distances(self.points, rows[r], centroids, cols[c], self.metric)
        dist = np.concatenate([direct, self.ub[rows]])
        order = np.lexsort((tid, dist, key))
        key = key[order]
        win = order[np.concatenate(([True], key[1:] != key[:-1]))]  # one per row, in order
        tid, dist = tid[win], dist[win]
        moved = np.flatnonzero(tid != self.assign[rows])
        at, went = held[moved], rows[moved]
        tile[at, self.col[tid[moved]]] = np.inf
        self.lb[g, went] = lower_bound(tile[at].min(axis=1), err[at], slack)
        left = self.gm.group_of[self.assign[went]]
        self.lb[left, went] = np.minimum(self.lb[left, went], self.ub[went])
        self.assign[rows], self.ub[rows] = tid, dist


def _take_rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``a[r, idx[r, j]]`` for every row r, by one flat take (cheaper than
    ``np.take_along_axis``, which builds a second index array)."""
    flat = idx + (np.arange(idx.shape[0]) * a.shape[1])[:, None]
    return np.ravel(a).take(flat)


class _TopK:
    """The K + 1 smallest fast values per source point and their targets,
    ascending by value, ties in any order.

    Each row is filled exactly once, by ``reduce``, from its one tile
    against all of its batch's candidate groups (``_sweep``). ``err``
    bounds the error of every kept value; the (K + 1)-th entry witnesses
    the boundary for ``settle``.
    """

    TILE_CELLS = 1 << 15  # 256 KB: a tile and its selection stay in cache and the heap

    def __init__(self, m: int, k: int, trg_gm: GroupModel):
        self.k = k
        self.top_f = np.full((m, k + 1), np.inf)
        # one past any real target id: a placeholder names no target
        self.top_i = np.full((m, k + 1), trg_gm.n, dtype=np.int64)
        self.err = np.zeros(m)

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

        Where the (K + 1)-th fast value lies more than 2*err above the K-th,
        the first K entries are exactly the K nearest (every target left
        out, tiled or pruned, is surely farther), so their distances are
        recomputed directly; only these two values and the set of the first
        K ids are read, and neither depends on how ties were ordered. A tie
        at the boundary has a gap of 0, so its row is open. Open rows are
        redone over all targets by the oracle, ``knn_topk``, in row blocks
        of bounded size.
        """
        k, n = self.k, trg.shape[0]
        ids = self.top_i[:, :k]
        dist = gathered_distance(src, trg, ids, metric, _DIRECT_BLOCK_ELEMS)
        redo = np.flatnonzero(self.top_f[:, k] - self.top_f[:, k - 1] <= 2 * self.err)
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
    group pair alike. Each kept unordered group pair {a, b} is tiled from
    its upper cell, b >= a: a rebuild resets the bounds of every kept pair,
    in both orientations, and tiles only the upper ones. Cut to its upper
    cells, a non-empty group is the only one whose candidate list holds
    it, so every tile's rows are one group a's; the tile folds into both
    orientations of each pair {a, b} it covers the minimum of its b
    columns less each row's error bound, widened by the bound slack. The
    lower cells' pairs are mirrored, not tiled, and count as reused. A
    member pair (i, j) is kept from the orientation with (group of i, i)
    before (group of j, j), so the diagonal cell yields its upper
    triangle. The list is every tiled pair whose fast value is at most
    ``cut`` + err: a superset of the pairs within ``cut``, and every pair
    left out lies beyond ``cut`` in direct arithmetic. A rebuild's pairs are collected per row group a, so
    concurrent batches never share a list; the bounds of a group pair
    {a, b}, a <= b, are folded, in both orientations, only by a's tiles.
    ``store_list`` keeps them once, as i < j sorted by (i, j), and frees
    the rest.

    Every step evaluates the listed pairs by direct differencing, the
    oracles' arithmetic, keeps those within the radius and hands their
    squared Euclidean sums to the force rule. ``disp`` is
    each point's movement since the rebuild; by the trace bound
    |d_t(i, j) - d_0(i, j)| <= disp_i + disp_j at the level of point pairs,
    the list holds while the two largest leave ``cut`` above the radius.
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
        the list; returns the source batches swept."""
        gm = self.gm
        drift = group_max(self.disp, gm.group_of, gm.z)
        thr = np.full(gm.z, self.cut)
        cm = filter_iterative(gm, self.lb, thr, drift, counters)
        to_tile = self.resolve(cm, counters)
        batches = _source_batches(np.arange(gm.z), to_tile)
        grouped = _Grouped.build(pos, gm, plan, self.metric, pos.mean(axis=0))
        sweep = _sweep(grouped, grouped, to_tile, batches, self, self.metric, threads)
        counters.add(sweep)
        self.store_list()
        self.disp[:] = 0.0
        return len(batches)

    def resolve(self, cm: CandidateMatrix, counters: CounterSet) -> CandidateMatrix:
        """Start a rebuild: reset the bounds of the kept group pairs and
        return the upper ones for the tiles to fold into."""
        self.pairs = [[] for _ in range(self.gm.z)]
        a = np.repeat(np.arange(self.gm.z), [cand.size for cand in cm.targets])
        b = np.concatenate(cm.targets)
        # both orientations: a lower cell keeps no stale bound
        self.lb[a, b] = np.inf  # vacuous for a pair with an empty group
        lower = b < a
        counters.reused_pairs += int(self.sizes[a[lower]] @ self.sizes[b[lower]])
        return CandidateMatrix(targets=[cand[cand >= g] for g, cand in enumerate(cm.targets)])

    def reduce(self, groups, cols, col_starts, ids, tile, err) -> None:
        """Keep, in one orientation, every entry at most ``cut`` + err, for
        the list's direct evaluation to decide, and fold each cell's tile
        minimum into the bounds of both orientations.

        The rows are one group a's: only a's own candidate list holds a,
        so a batch holds no other non-empty group, though an empty one may
        lead it. The target groups are distinct, so each fold touches each
        cell once."""
        a = self.gm.group_of[ids[0]]
        flat = np.flatnonzero(tile <= (self.cut + err)[:, None])
        hit_r, hit_c = np.divmod(flat, tile.shape[1])
        hit_i, hit_j = ids.take(hit_r), cols.take(hit_c)
        first = self._first(hit_i, hit_j)
        self.pairs[a].append((hit_i[first], hit_j[first]))
        low = np.minimum.reduceat(tile, col_starts, axis=1) - err[:, None]
        low = lower_bound(low.min(axis=0), 0.0, self.slack)
        self.lb[a, groups] = np.minimum(self.lb[a, groups], low)
        self.lb[groups, a] = np.minimum(self.lb[groups, a], low)

    def store_list(self) -> None:
        """Store the rebuild's pairs once, as int32 i < j sorted by (i, j),
        with the argsort of the unique keys j·n + i, which orders them by
        (j, i); free the sweep's pairs."""
        parts = [p for group in self.pairs for p in group]
        self.pairs = []
        one = np.concatenate([np.empty(0, dtype=np.int64), *(p[0] for p in parts)])
        other = np.concatenate([np.empty(0, dtype=np.int64), *(p[1] for p in parts)])
        del parts
        n = self.gm.n
        li, lj = np.divmod(np.sort(np.minimum(one, other) * n + np.maximum(one, other)), n)
        self.li, self.lj = li.astype(np.int32), lj.astype(np.int32)
        self.below = np.argsort(lj * n + li).astype(np.int32)

    def neighbors(self, pos: np.ndarray, counters: CounterSet, rebuilt: bool):
        """The step's neighbor pairs i < j sorted by (i, j), their squared
        Euclidean distances r2, and per point its sorted neighbor ids as CSR
        (offsets, ids): the listed pairs within the radius.

        Row blocks of the listed pairs are gathered once and differenced in
        place. Each block's r2 is ``np.add.reduce`` of the squared
        differences, the oracles' arithmetic, and under unweighted L2 its
        root decides; any other metric decides on ``difference_distance``
        of the same differences. The force rule takes the kept pairs' r2.

        On a list step each listed pair counts as a point distance, its
        other orientation as reused and every other ordered pair as pruned;
        a rebuild's sweep has counted its pairs, so there they count as
        recomputed. A point's list is its partners below it, from the kept
        pairs in (j, i) order, then those above it, from its run of kept
        (i, j) pairs: one counting scatter, no sort."""
        n, li, lj = pos.shape[0], self.li, self.lj
        euclid = self.metric.kind == "L2" and not self.metric.weighted
        r2, keep = np.empty(li.size), np.empty(li.size, dtype=bool)
        step = max(1, _DIRECT_BLOCK_ELEMS // (4 * pos.shape[1]))
        for start in range(0, li.size, step):
            at = slice(start, start + step)
            x = pos.take(li[at], axis=0)
            x -= pos.take(lj[at], axis=0)
            r2[at] = np.add.reduce(x * x, axis=1)
            dist = np.sqrt(r2[at]) if euclid else difference_distance(x, self.metric)
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
        ids = np.empty(2 * pair_i.size, dtype=np.int64)
        ids[np.arange(pair_i.size) + np.cumsum(below).take(pair_i)] = pair_j
        ids[np.arange(down.size) + (np.cumsum(above) - above).take(lj.take(down))] = li.take(down)
        offsets = np.concatenate(([0], np.cumsum(above + below)))
        return pair_i, pair_j, r2, offsets, ids


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
    """Lloyd iteration, assigning through Yinyang bounds (``_Yinyang``)
    against ``design.n_trg_grp`` groups of the centres, formed at their
    start. Assignment is the nearest cluster under (distance, id)
    tie-break; centroids are member means; empty clusters keep their
    position. Exit on unchanged assignments or the iteration cap.
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
        per_iter.append(_stats(it, delta, n, k, calls, n, changed))
        if changed == 0:
            break

    outputs = {"assignments": assignments, "centroids": centroids}
    return _result(plan, outputs, per_iter, counters, config, t0, trg_lp, oracle_s)


# -- one-shot two-set (top-K join) ----------------------------------------


def run_knn_join(
    plan: ExecutionPlan,
    src: Dataset,
    trg: Dataset,
    config: RunConfig,
    weights: np.ndarray | None = None,
) -> RunResult:
    """Exact top-K join: group both sets, filter group pairs through the
    two-landmark bounds and sweep (``_sweep``) each row once against all
    of its group's candidate groups; ``_TopK.reduce`` takes each row's
    K + 1 straight from its one tile, and ``_TopK.settle`` makes the
    result exact. Self-matches are kept (a point joined against its own
    set finds itself at distance zero)."""
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
    order = reorder_inter_group(cm)
    src_lp = pack_intra_group(src, src_gm, group_order=order)
    trg_lp = pack_intra_group(trg, trg_gm)
    batches = _source_batches(order, cm)
    centre = src.values.mean(axis=0)
    g_src = _Grouped.build(src.values, src_gm, src_lp, metric, centre)
    g_trg = _Grouped.build(trg.values, trg_gm, trg_lp, metric, centre)
    topk = _TopK(m, k, trg_gm)
    sweep = _sweep(g_src, g_trg, cm, batches, topk, metric, config.thread_count)
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
    term of both orientations in (i, j) order."""
    n = len(pos)
    acc = np.empty_like(pos)
    scale = (r2 + softening * softening) ** -1.5
    # a point's partners below it (the j side, ascending i), then above it
    to = np.concatenate((pair_j, pair_i), dtype=np.intp)
    for c, col in enumerate(np.ascontiguousarray(pos.T)):
        x = col.take(pair_j) - col.take(pair_i)
        x *= scale
        acc[:, c] = np.bincount(to, weights=np.concatenate((-x, x)), minlength=n)
    return acc


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
    once from its upper cell, in source batches, as the two-set pipelines
    do. The cut to upper cells gives each group its own candidate list
    (group a keeps its diagonal cell, group a + 1 does not), so a batch is
    nearly always one group. Each later step adds every point's movement
    to its displacement since the rebuild and rebuilds only when the two
    largest could have brought a pair from beyond the radius plus s to
    within the radius; a rebuild decays the group-pair lower bounds by each
    group's largest displacement first. Every step, rebuild or not,
    evaluates the listed pairs directly and keeps those within the radius;
    a list step sweeps no source batch. The force rule takes each
    unordered neighbor pair once, with the squared sum that evaluation
    computed for it. No step writes ``pos`` in place, so the trajectory
    keeps each step's array.
    """
    _check_kind(plan, "iterative_self_set")
    t0 = time.perf_counter()
    metric = plan.metric_spec(weights)
    radius = float(plan.select.value)
    if not radius > 0:
        raise RangeError("radius must be positive")
    n, d = particles.n, particles.d
    metric.check_dim(d)
    steps = plan.max_iter if plan.max_iter is not None else config.status_iter_cap

    counters = CounterSet()
    z = min(config.design.n_src_grp, n)
    gm = build_groups(particles, z, config.seed + 1, metric, counters)
    lplan = pack_intra_group(particles, gm)

    pos = particles.values.copy()
    vel = np.zeros_like(pos)
    within = _Radius(gm, radius, radius * _SKIN_FRACTION, metric)

    neighbors_per_step: list[list[np.ndarray]] = []
    trajectories: list[np.ndarray] = [pos]  # each step makes a new pos
    per_iter: list[IterationStats] = []
    prev_drift: np.ndarray | None = None
    oracle_s = 0.0

    for step in range(1, steps + 1):
        base = counters.snapshot()
        if step == 1:
            within.lb, _ = init_oneshot_state(gm, gm, counters)
        else:
            counters.bound_computations += n  # drift distances recorded at integration
            within.moved(prev_drift)
        rebuild = step == 1 or not within.holds()
        batches = within.rebuild(pos, lplan, counters, config.thread_count) if rebuild else 0
        pair_i, pair_j, r2, offsets, ids = within.neighbors(pos, counters, rebuild)
        edges = offsets.tolist()
        lists = [ids[a:b] for a, b in zip(edges, edges[1:])]
        neighbors_per_step.append(lists)

        if config.oracle_mode == "shadow":
            t_oracle = time.perf_counter()
            want = radius_neighbors(pos, metric, radius)
            want_offsets = np.cumsum([0] + [w.size for w in want])
            same = np.array_equal(offsets, want_offsets)
            if not (same and np.array_equal(ids, np.concatenate(want))):
                i = next(i for i in range(n) if not np.array_equal(lists[i], want[i]))
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
        acc = default_force_rule(pos, pair_i, pair_j, r2, config.softening)
        vel = vel + acc * config.dt
        new_pos = pos + vel * config.dt
        prev_drift = rowwise_distance(pos, new_pos, metric)
        pos = new_pos
        trajectories.append(pos)
        per_iter.append(_stats(step, counters.delta_since(base), n, n, batches, z))

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
