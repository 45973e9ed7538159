"""Landmark grouping and triangle-inequality bound filtering.

Points are partitioned into groups around landmark points; distances
between landmarks plus per-group radii turn into lower/upper bounds on
point-pair distances that never require touching the points themselves.

Grouping assigns every point to its nearest landmark six times (five
Lloyd rounds and the final pass). Each assignment ranks the landmarks
through the kernel's fast pass (``kernel.tile_distances`` on rows centred
once on the points' mean) and counts, per point, the landmarks within
twice the pass's error bound of its fast minimum. A decided point, with
one such landmark, takes it with no recompute; an open point, with
several, recomputes them by direct differencing, ties going to the lower
landmark id. Only the final pass recomputes each point's distance to its
landmark, in row blocks. The groups, radii and point-to-landmark
distances are bitwise those of a brute-force construction; only the time
and memory differ.

Three bound families are provided:

* two-landmark: bound d(a, b) through d(a_ref, b_ref) and the two
  point-to-landmark offsets;
* group-level: the same algebra with group radii in place of per-point
  offsets, so every member of a source group shares one candidate list;
* trace-based: reuse a self-set's group-pair lower bounds from its last
  rebuild, decayed by how far each group has drifted since.

All filters are conservative, in floating point too: every stored bound
brackets both the true distance of each member pair and the value direct
differencing returns for it, because each bound is widened by a small
relative term (``bound_slack``) that covers the rounding of the distances
it is built from and of its own arithmetic. A pruned pair is therefore
provably outside the query after rounding, and downstream results equal
brute force exactly.

Every filter ends in one vectorised cut: target group t survives for
source group a iff lb[a, t] <= thr[a], where the per-source-group
threshold ``thr`` comes from the query (the K-th covering ub, or the
radius plus the Verlet skin of a self-set rebuild).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counters import CounterSet
from .dataset import Dataset, brute_rows
from .errors import InvalidQueryError, RangeError
from .kernel import fast_rows, gamma, tile_distances
from .metrics import MetricSpec, rowwise_distance
from .oracles import group_means, group_members

_LLOYD_ITERATIONS = 5
_ASSIGN_BLOCK_ELEMS = 4_000_000


@dataclass
class GroupModel:
    """Landmarks plus the point partition built around them."""

    landmarks: np.ndarray  # z x d
    membership: list[np.ndarray]  # per group, sorted point ids
    group_of: np.ndarray  # n, group id per point
    radius: np.ndarray  # z, distance to farthest member (0 if empty)
    point_to_landmark: np.ndarray  # n, distance to own landmark
    metric: MetricSpec

    @property
    def z(self) -> int:
        return self.landmarks.shape[0]

    @property
    def n(self) -> int:
        return self.group_of.shape[0]

    @property
    def sizes(self) -> np.ndarray:
        return np.array([m.size for m in self.membership], dtype=np.int64)

    @property
    def slack(self) -> float:
        return bound_slack(self.landmarks.shape[1])


@dataclass
class CandidateMatrix:
    """Per source group, the sorted target groups surviving the filter."""

    targets: list[np.ndarray]

    def key(self, g: int) -> tuple:
        return tuple(int(t) for t in self.targets[g])


def _assign_nearest(
    values: np.ndarray,
    centre: np.ndarray,
    fast: tuple[np.ndarray, np.ndarray | None],
    landmarks: np.ndarray,
    metric: MetricSpec,
    counters: CounterSet | None,
    with_dist: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Nearest landmark per point under (distance, id), and with
    ``with_dist`` that distance (else None).

    Equal, bitwise, to the argmin of ``brute_rows`` with its value.
    ``fast`` is ``fast_rows(values, centre, metric)``. The kernel's fast
    pass gives every point-landmark value within ``err`` of its direct-
    differencing value, so a landmark whose fast value exceeds the row's
    fast minimum by more than 2*err can neither win nor tie. A row with one
    landmark within that margin is decided: its fast argmin wins. Only the
    open rows, with several, recompute those candidates by direct
    differencing, the arithmetic of ``brute_rows``, and the (distance, id)
    minimum wins. The winners' distances are recomputed the same way.
    """
    n, d = values.shape
    z = landmarks.shape[0]
    pts, pts_sq = fast
    lms, lms_sq = fast_rows(landmarks, centre, metric)
    assign = np.empty(n, dtype=np.int64)
    dist = np.empty(n, dtype=np.float64) if with_dist else None
    # A row costs the block z fast values, up to z*d recomputed terms if
    # it is open and d more for its exact distance in the final pass, so a
    # budget of z*d terms per row bounds all three.
    step = max(1, _ASSIGN_BLOCK_ELEMS // max(1, z * d))
    for start in range(0, n, step):
        stop = min(n, start + step)
        sq = None if pts_sq is None else pts_sq[start:stop]
        tile, err = tile_distances(pts[start:stop], lms, metric, None, sq, lms_sq)
        best = tile.argmin(axis=1)
        low = np.take_along_axis(tile, best[:, None], axis=1)
        cand = tile <= low + 2 * err[:, None]
        counts = np.count_nonzero(cand, axis=1)
        open_rows = np.flatnonzero(counts > 1)
        if open_rows.size:
            rows, cols = np.nonzero(cand[open_rows])  # ids ascend within a row
            exact = rowwise_distance(values[start + open_rows[rows]], landmarks[cols], metric)
            counts = counts[open_rows]
            starts = np.cumsum(counts) - counts
            low_exact = np.minimum.reduceat(exact, starts)
            hits = np.flatnonzero(exact == np.repeat(low_exact, counts))
            best[open_rows] = cols[hits[np.searchsorted(hits, starts)]]  # lowest id
        assign[start:stop] = best
        if with_dist:
            dist[start:stop] = rowwise_distance(values[start:stop], landmarks[best], metric)
    if counters is not None:
        counters.grouping_distances += n * z
    return assign, dist


def build_groups(
    ds: Dataset,
    z: int,
    seed: int,
    metric: MetricSpec,
    counters: CounterSet | None = None,
) -> GroupModel:
    """Partition a dataset into z landmark groups.

    Landmarks come from a short Lloyd refinement (fixed iteration count)
    seeded by a uniform sample of z distinct points; everything is
    deterministic in ``seed``. Every assignment, in the five Lloyd rounds
    and the final one, is certified (``_assign_nearest``) on the points'
    fast rows, centred once on their mean: a point whose fast pass leaves
    one landmark within its error bound takes it, and only the open points
    recompute their candidates by direct differencing, ties going to the
    lower landmark id. The Lloyd rounds keep the assignment alone; the
    final pass also recomputes each point's distance to its landmark.
    Landmarks, memberships, radii and point-to-landmark distances are
    therefore bitwise equal to a brute-force ``brute_rows`` construction.
    Credits n*z decided pairs per assignment to ``grouping_distances`` and
    one cached point-to-landmark distance per point to the bound tally.
    """
    n = ds.n
    if z < 1 or z > n:
        raise RangeError(f"group count z={z} out of range 1..{n}")
    rng = np.random.default_rng(seed)
    landmarks = ds.values[rng.choice(n, size=z, replace=False)].copy()
    centre = ds.values.mean(axis=0)
    fast = fast_rows(ds.values, centre, metric)
    for _ in range(_LLOYD_ITERATIONS):
        assign, _ = _assign_nearest(ds.values, centre, fast, landmarks, metric, counters)
        landmarks = group_means(ds.values, assign, z, landmarks)
    assign, dist = _assign_nearest(
        ds.values, centre, fast, landmarks, metric, counters, with_dist=True
    )
    if counters is not None:
        counters.bound_computations += n
    return GroupModel(
        landmarks=landmarks,
        membership=group_members(assign, z),
        group_of=assign,
        radius=group_max(dist, assign, z),
        point_to_landmark=dist,
        metric=metric,
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
    src_sizes: np.ndarray,
    trg_sizes: np.ndarray,
    counters: CounterSet | None,
) -> CandidateMatrix:
    """Keep target group t for source group a iff lb[a, t] <= thr[a].

    Credits every dropped point pair to ``pruned_pairs``.
    """
    keep = lb <= thr[:, None]
    if counters is not None:
        counters.pruned_pairs += int(src_sizes @ (~keep @ trg_sizes))
    _, cols = np.nonzero(keep)
    splits = np.cumsum(np.count_nonzero(keep, axis=1))[:-1]
    return CandidateMatrix(targets=np.split(cols, splits))


# -- one-shot filtering (two-landmark + group-level) ---------------------


def init_oneshot_state(
    src: GroupModel,
    trg: GroupModel,
    counters: CounterSet | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The group-pair bounds (lb, ub), each z_src x z_trg.

    Costs exactly z_src * z_trg true distance evaluations between the
    landmarks, and no point distance: with the per-point offsets cached by
    ``build_groups`` it is the whole bound budget of the one-shot path and
    of the first self-set rebuild, whose lower bounds later rebuilds decay
    by drift (``filter_iterative``).
    """
    pair = brute_rows(src.landmarks, trg.landmarks, src.metric)
    if counters is not None:
        counters.bound_computations += src.z * trg.z
    return two_landmark_bounds(pair, src.radius[:, None], trg.radius[None, :], src.slack)


def filter_oneshot(
    src: GroupModel,
    trg: GroupModel,
    lb: np.ndarray,
    ub: np.ndarray,
    k: int,
    counters: CounterSet | None = None,
) -> CandidateMatrix:
    """Top-K candidates per source group.

    The threshold of a source group accumulates target group sizes in
    ascending (ub, group id) order until at least K points are covered and
    takes the ub reached there; a target group survives iff its lb does
    not exceed that threshold. The threshold carries the slack of ``ub``:
    at least K targets lie within it after rounding.
    """
    sizes = trg.sizes
    if k < 1 or k > int(sizes.sum()):
        raise InvalidQueryError(f"top-K count {k} out of range for {sizes.sum()} targets")
    order = np.argsort(ub, axis=1, kind="stable")
    covered = np.cumsum(sizes[order], axis=1)
    rows = np.arange(ub.shape[0])
    thr = ub[rows, order[rows, np.argmax(covered >= k, axis=1)]]
    return _cut(lb, thr, src.sizes, sizes, counters)


# -- iterative filtering (trace + group-level) ---------------------------


def filter_iterative(
    gm: GroupModel,
    lb: np.ndarray,
    thr: np.ndarray,
    drift: np.ndarray,
    counters: CounterSet | None = None,
) -> CandidateMatrix:
    """Decay a self-set's group-pair lower bounds, then cut them.

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
