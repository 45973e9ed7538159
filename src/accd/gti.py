"""Landmark grouping and triangle-inequality bound filtering.

Points are partitioned into groups around landmark points; distances
between landmarks plus per-group radii turn into lower/upper bounds on
point-pair distances that never require touching the points themselves.

Grouping refines the landmarks with five Lloyd rounds on a seeded sample
of at most 16 points per group, then assigns every point to its nearest
landmark in one final pass. Each assignment tiles the points, centred once
on the whole set's mean, against every landmark through the pipelines'
one tile engine (``pipelines._tile_rows``), whose top-1 reducer
(``_Nearest``) counts, per point, the landmarks whose tile values (squared
under L2) lie within the tile's error bound of the point's largest
possible distance to its fast nearest, mapped into tile scale
(``MetricSpec.to_tile``). A decided point, with one such landmark, takes
it with no recompute; an open point, with several, recomputes them by
direct differencing, ties going to the lower landmark id. Only the
final pass recomputes each point's distance to its landmark, and each
group's radius is the largest of its members'. The groups and radii are
bitwise those of the same sampled construction with brute-force
assignments; only the time and memory differ.

Three bound families are provided:

* two-landmark: bound d(a, b) through d(a_ref, b_ref) and the two
  point-to-landmark offsets; the join's point-level bounds take a point's
  fast distance to a landmark, rooted from its tile value with its error
  bound as the offset (``MetricSpec.from_tile``);
* group-level: the same algebra with group radii in place of per-point
  offsets, so every member of a group shares one candidate list (n-body);
* trace-based: reuse a self-set's group-pair lower bounds from its last
  rebuild, decayed by how far each group has drifted since.

All filters are conservative, in floating point too: every stored bound
brackets both the true distance of each member pair and the value direct
differencing returns for it, because each bound is widened by a small
relative term (``bound_slack``) that covers the rounding of the distances
it is built from and of its own arithmetic. A pruned pair is therefore
provably outside the query after rounding, and downstream results equal
brute force exactly.

Every filter ends in one vectorised cut: target group t survives for row
a, a join's source point or an n-body group, iff lb[a, t] <= thr[a],
where the per-row threshold ``thr`` comes from the query (the K-th
covering ub, or the radius plus the Verlet skin of a self-set rebuild).
The cut returns that (rows, z_trg) keep mask, which names each source
point's candidate target groups for the pipelines' batching.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .counters import CounterSet
from .dataset import Dataset, brute_rows
from .errors import InvalidQueryError, RangeError
from .kernel import fast_rows, gamma
from .metrics import MetricSpec, rowwise_distance
from .oracles import group_means

_LLOYD_ITERATIONS = 5
# The Lloyd rounds see at most this many points per group, drawn once per
# build; the final pass still assigns every point.
_LLOYD_SAMPLE_PER_GROUP = 16


@dataclass
class GroupModel:
    """Landmarks plus the point partition built around them."""

    landmarks: np.ndarray  # z x d
    group_of: np.ndarray  # n, group id per point
    radius: np.ndarray  # z, distance to farthest member (0 if empty)
    metric: MetricSpec
    sizes: np.ndarray = field(init=False)  # z, members per group

    def __post_init__(self):
        self.sizes = np.bincount(self.group_of, minlength=self.z)

    @property
    def z(self) -> int:
        return self.landmarks.shape[0]

    @property
    def n(self) -> int:
        return self.group_of.shape[0]

    @property
    def slack(self) -> float:
        return bound_slack(self.landmarks.shape[1])


class _Nearest:
    """Top-1 reducer of the tile engine: each row's nearest landmark under
    (distance, id) into ``assign``, and its distance into ``dist`` unless
    that is None. The row's fast minimum, rooted with its error bound
    (``MetricSpec.from_tile``), bounds the winner's direct distance from
    above; a landmark can win or tie only within that bound, so only within
    ``to_tile`` of it plus ``err`` in tile scale, which covers two sums
    rounding to one root. A row with one landmark within that margin is
    decided: its fast argmin wins. Only the open rows, with several,
    recompute those candidates by direct differencing, the arithmetic of
    ``brute_rows`` and of each winner's distance, and the (distance, id)
    minimum wins."""

    # 1 MB of fast values per tile; a row's z of them may cost z*d direct terms
    TILE_CELLS = 1 << 17

    def __init__(self, values: np.ndarray, landmarks: np.ndarray, metric: MetricSpec, with_dist):
        self.values, self.landmarks, self.metric = values, landmarks, metric
        self.assign = np.empty(values.shape[0], dtype=np.int64)
        self.dist = np.empty(values.shape[0]) if with_dist else None

    def reduce(self, groups, cols, col_starts, ids, tile, err) -> None:
        best = tile.argmin(axis=1)  # the columns are the landmark ids, ascending
        low, bound = self.metric.from_tile(np.take_along_axis(tile, best[:, None], axis=1),
                                           err[:, None])
        cand = tile <= self.metric.to_tile(low + bound) + err[:, None]
        counts = np.count_nonzero(cand, axis=1)
        open_rows = np.flatnonzero(counts > 1)
        if open_rows.size:
            rows, marks = np.nonzero(cand[open_rows])  # ids ascend within a row
            values = self.values[ids[open_rows[rows]]]
            exact = rowwise_distance(values, self.landmarks[marks], self.metric)
            counts = counts[open_rows]
            starts = np.cumsum(counts) - counts
            low_exact = np.minimum.reduceat(exact, starts)
            hits = np.flatnonzero(exact == np.repeat(low_exact, counts))
            best[open_rows] = marks[hits[np.searchsorted(hits, starts)]]  # lowest id
        self.assign[ids] = best
        if self.dist is not None:
            self.dist[ids] = rowwise_distance(self.values[ids], self.landmarks[best], self.metric)


def _assign_nearest(
    values: np.ndarray,
    centre: np.ndarray,
    fast: tuple[np.ndarray, slice | np.ndarray],
    landmarks: np.ndarray,
    metric: MetricSpec,
    counters: CounterSet | None,
    with_dist: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Nearest landmark per point under (distance, id), and with
    ``with_dist`` that distance (else None): bitwise the argmin of
    ``brute_rows`` with its value, decided by ``_Nearest``. ``fast`` is
    (rows, at): ``fast_rows(all_values, centre, metric)`` of the set whose
    mean ``centre`` is, and the positions ``at`` of ``values`` in it, a
    slice or ids (a Lloyd round's sample)."""
    # imported here, as pipelines imports this module; the engine calls the
    # ``tile_distances`` that pipelines binds, which a tracer may rebind
    from .pipelines import _point_targets, _tile_rows

    rows, at = fast
    near = _Nearest(values, landmarks, metric, with_dist)
    marks = _point_targets(landmarks, centre, metric)
    _tile_rows(rows, at, np.arange(len(values)), marks, near.reduce, near.TILE_CELLS, metric, None)
    if counters is not None:
        counters.grouping_distances += len(values) * landmarks.shape[0]
    return near.assign, near.dist


def build_groups(
    ds: Dataset,
    z: int,
    seed: int,
    metric: MetricSpec,
    counters: CounterSet | None = None,
) -> GroupModel:
    """Partition a dataset into z landmark groups.

    Landmarks come from a short Lloyd refinement (fixed iteration count)
    seeded by a uniform sample of z distinct points. When s = 16*z < n the
    rounds run on s further distinct points, drawn after the landmarks
    from the same generator and taken in ascending id order; otherwise on
    all n. Everything is deterministic in ``seed``. Every assignment, in
    the five Lloyd rounds and the final one over all n points, is
    certified (``_assign_nearest``) on the points' fast rows, centred once
    on the whole set's mean, which the tile engine tiles against every
    landmark (a sample's rows are gathered from them by position): a point
    whose fast pass leaves one landmark within its error bound takes it,
    and only the open points recompute their candidates by direct
    differencing, ties going to the lower landmark id. The Lloyd rounds
    keep the assignment alone; the final pass also recomputes each point's
    distance to its landmark, whose largest per group is the group's
    radius. Landmarks, groups and radii are therefore bitwise equal to the
    same sampled construction with brute-force ``brute_rows`` assignments.
    A landmark that draws no sample member keeps its row, and its group
    may end up empty. Credits rows*z decided pairs per assignment to
    ``grouping_distances`` (5*s*z + n*z when sampled, 6*n*z otherwise) and
    the n point-to-landmark distances the radii come from to the bound
    tally.
    """
    n = ds.n
    if z < 1 or z > n:
        raise RangeError(f"group count z={z} out of range 1..{n}")
    rng = np.random.default_rng(seed)
    landmarks = ds.values[rng.choice(n, size=z, replace=False)].copy()
    centre = ds.values.mean(axis=0)
    rows = fast_rows(ds.values, centre, metric)
    sample, at = ds.values, slice(0, n)
    s = _LLOYD_SAMPLE_PER_GROUP * z
    if s < n:
        # sorted, so group_means sums each group in ascending point id order
        at = np.sort(rng.choice(n, size=s, replace=False))
        sample = ds.values[at]
    for _ in range(_LLOYD_ITERATIONS):
        assign, _ = _assign_nearest(sample, centre, (rows, at), landmarks, metric, counters)
        landmarks = group_means(sample, assign, z, landmarks)
    assign, dist = _assign_nearest(
        ds.values, centre, (rows, slice(0, n)), landmarks, metric, counters, with_dist=True
    )
    if counters is not None:
        counters.bound_computations += n
    return GroupModel(
        landmarks=landmarks, group_of=assign, radius=group_max(dist, assign, z), metric=metric
    )


# -- bound algebra ------------------------------------------------------


def bound_slack(d: int) -> float:
    """Relative widening for bounds built from distances in dimension d.

    A direct-differencing value is within gamma_{d+3} of the true distance
    (d+2 roundings in the terms and their sum, one in the root). A bound on
    the true distance assembled from such values is off by gamma_{d+3}
    relative to each term, turning it into a bound on the direct value
    costs gamma_{d+3} again, and evaluating it a few u:
    4*gamma_{d+4} covers 2*gamma_{d+3} + gamma_{d+3}^2 + 4u with room.
    """
    return 4 * gamma(d + 4)


def lower_bound(pos, neg, slack: float):
    """max(0, pos - neg), widened so it stays below both the true distance
    and its direct-differencing value."""
    return np.maximum(0.0, pos * (1 - slack) - neg * (1 + slack))


def upper_bound(total, slack: float):
    """``total``, widened so it stays above both the true distance and its
    direct-differencing value."""
    return total * (1 + slack)


def two_landmark_bounds(d_ref, d_a, d_b, slack: float):
    """Bounds on d(a, b) from two landmark offsets.

    lb = max(0, d_ref - d_a - d_b), ub = d_ref + d_a + d_b, each widened by
    ``slack``. Works elementwise on arrays; with group radii as the offsets
    it bounds every member pair of two groups. Both add the offsets first,
    so swapping a and b gives bitwise the same bounds.
    """
    off = d_a + d_b
    return lower_bound(d_ref, off, slack), upper_bound(d_ref + off, slack)


def group_max(values: np.ndarray, group_of: np.ndarray, z: int) -> np.ndarray:
    out = np.zeros(z, dtype=np.float64)
    np.maximum.at(out, group_of, values)
    return out


def _cut(
    lb: np.ndarray,
    thr: np.ndarray,
    src_sizes: np.ndarray | None,
    trg_sizes: np.ndarray,
    counters: CounterSet | None,
) -> np.ndarray:
    """The (rows, z_trg) keep mask: target group t survives for row a, a
    set of ``src_sizes[a]`` source points (one point when ``src_sizes`` is
    None), iff lb[a, t] <= thr[a].

    Credits every dropped point pair to ``pruned_pairs``.
    """
    keep = lb <= thr[:, None]
    if counters is not None:
        dropped = ~keep @ trg_sizes  # target points dropped per row
        counters.pruned_pairs += int(dropped.sum() if src_sizes is None else src_sizes @ dropped)
    return keep


# -- one-shot filtering (two-landmark + group-level) ---------------------


def init_oneshot_state(
    src: GroupModel,
    trg: GroupModel,
    counters: CounterSet | None = None,
) -> np.ndarray:
    """The group-pair lower bounds lb, z_src x z_trg.

    Costs exactly z_src * z_trg true distance evaluations between the
    landmarks, and no point distance: with the radii of ``build_groups``
    it is the whole bound budget of the first self-set rebuild, whose
    lower bounds later rebuilds decay by drift (``filter_iterative``).
    """
    pair = brute_rows(src.landmarks, trg.landmarks, src.metric)
    if counters is not None:
        counters.bound_computations += src.z * trg.z
    lb, _ = two_landmark_bounds(pair, src.radius[:, None], trg.radius[None, :], src.slack)
    return lb


def filter_oneshot(
    lb: np.ndarray,
    ub: np.ndarray,
    k: int,
    trg_sizes: np.ndarray,
    counters: CounterSet | None = None,
) -> np.ndarray:
    """Top-K candidates per row of the bounds, one join source point each,
    as the cut's keep mask.

    The threshold of a row accumulates target group sizes in ascending ub
    order until at least K points are covered and takes the ub reached
    there; a target group survives iff its lb does not exceed that
    threshold. The threshold is the least ub whose groups cover K, so the
    order of tied ubs does not change it. It carries the slack of ``ub``:
    at least K targets lie within it after rounding.
    """
    if k < 1 or k > int(trg_sizes.sum()):
        raise InvalidQueryError(f"top-K count {k} out of range for {trg_sizes.sum()} targets")
    order = np.argsort(ub, axis=1)
    covered = np.cumsum(trg_sizes[order], axis=1)
    rows = np.arange(ub.shape[0])
    thr = ub[rows, order[rows, np.argmax(covered >= k, axis=1)]]
    return _cut(lb, thr, None, trg_sizes, counters)


# -- iterative filtering (trace + group-level) ---------------------------


def filter_iterative(
    gm: GroupModel,
    lb: np.ndarray,
    thr: np.ndarray,
    drift: np.ndarray,
    counters: CounterSet | None = None,
) -> np.ndarray:
    """Decay a self-set's group-pair lower bounds, then cut them; returns
    the cut's keep mask.

    ``drift`` holds per group the largest distance any member moved since
    the bounds were taken; lb[a, b] shrinks by drift[a] + drift[b], widened
    by the bound slack, in place. Group b survives for group a iff its
    decayed lb does not exceed ``thr[a]``. The first rebuild cuts the
    landmark bounds of ``init_oneshot_state`` with zero drift.
    """
    lb[...] = lower_bound(lb, drift[:, None] + drift[None, :], gm.slack)
    return _cut(lb, thr, gm.sizes, gm.sizes, counters)


def measured_saving(point_distances: int, n1: int, n2: int) -> float:
    """Fraction of the n1*n2 point-pair work an iteration avoided."""
    total = n1 * n2
    if total <= 0:
        raise RangeError("empty pair space")
    return 1.0 - point_distances / total
