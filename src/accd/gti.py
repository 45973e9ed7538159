"""Landmark grouping and triangle-inequality bound filtering.

Points are partitioned into groups around landmark points; distances
between landmarks plus per-group radii turn into lower/upper bounds on
point-pair distances that never require touching the points themselves.
Three bound families are provided:

* two-landmark: bound d(a, b) through d(a_ref, b_ref) and the two
  point-to-landmark offsets;
* group-level: the same algebra with group radii in place of per-point
  offsets, so every member of a source group shares one candidate list;
* trace-based: reuse last iteration's bounds, decayed by how far each
  group or point has drifted since.

All filters are conservative: in exact arithmetic a pruned pair is
provably outside the query, so downstream results equal brute force
exactly. The bounds carry no floating-point slack yet; making the promise
hold in floating point too is open (ROADMAP item 1).

Every filter ends in one vectorised cut: target group t survives for
source group a iff lb[a, t] <= thr[a], where the per-source-group
threshold ``thr`` comes from the query (the K-th covering ub, the
weakest point bound, or the radius).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counters import CounterSet
from .dataset import Dataset, brute_rows
from .errors import InvalidQueryError, RangeError
from .metrics import MetricSpec
from .oracles import group_means

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


@dataclass
class CandidateMatrix:
    """Per source group, the sorted target groups surviving the filter.

    ``all_inside[g]`` (radius queries only) marks survivors whose upper
    bound already proves every member pair lies within the radius.
    """

    targets: list[np.ndarray]
    all_inside: list[np.ndarray] | None = None

    def key(self, g: int) -> tuple:
        return tuple(int(t) for t in self.targets[g])

    @classmethod
    def full(cls, z_src: int, z_trg: int) -> "CandidateMatrix":
        all_targets = np.arange(z_trg, dtype=np.int64)
        return cls(targets=[all_targets.copy() for _ in range(z_src)])


def _assign_nearest_blocked(
    values: np.ndarray,
    landmarks: np.ndarray,
    metric: MetricSpec,
    counters: CounterSet | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest landmark per point (ties to the lower landmark id)."""
    n = values.shape[0]
    z = landmarks.shape[0]
    assign = np.empty(n, dtype=np.int64)
    dist = np.empty(n, dtype=np.float64)
    scratch = CounterSet()
    step = max(1, _ASSIGN_BLOCK_ELEMS // max(1, z * values.shape[1]))
    for start in range(0, n, step):
        stop = min(n, start + step)
        block = brute_rows(values[start:stop], landmarks, metric, scratch)
        a = np.argmin(block, axis=1)
        assign[start:stop] = a
        dist[start:stop] = block[np.arange(stop - start), a]
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
    deterministic in ``seed``. Credits one cached point-to-landmark
    distance per point to the bound tally.
    """
    n = ds.n
    if z < 1 or z > n:
        raise RangeError(f"group count z={z} out of range 1..{n}")
    rng = np.random.default_rng(seed)
    landmarks = ds.values[rng.choice(n, size=z, replace=False)].copy()
    for _ in range(_LLOYD_ITERATIONS):
        assign, _ = _assign_nearest_blocked(ds.values, landmarks, metric, counters)
        landmarks = group_means(ds.values, assign, z, landmarks)
    assign, dist = _assign_nearest_blocked(ds.values, landmarks, metric, counters)
    membership = [np.flatnonzero(assign == g) for g in range(z)]
    radius = np.zeros(z, dtype=np.float64)
    for g, members in enumerate(membership):
        if members.size:
            radius[g] = dist[members].max()
    if counters is not None:
        counters.bound_computations += n
    return GroupModel(
        landmarks=landmarks,
        membership=membership,
        group_of=assign,
        radius=radius,
        point_to_landmark=dist,
        metric=metric,
    )


# -- bound algebra ------------------------------------------------------


def two_landmark_bounds(d_ref, d_a, d_b):
    """Bounds on d(a, b) from two landmark offsets.

    lb = max(0, d_ref - d_a - d_b), ub = d_ref + d_a + d_b. Works
    elementwise on arrays; with group radii as the offsets it bounds every
    member pair of two groups.
    """
    return np.maximum(0.0, d_ref - d_a - d_b), d_ref + d_a + d_b


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
    ub: np.ndarray | None = None,
) -> CandidateMatrix:
    """Keep target group t for source group a iff lb[a, t] <= thr[a].

    With ``ub`` the kept pairs with ub[a, t] <= thr[a] are marked
    all-inside. Credits every dropped point pair to ``pruned_pairs``.
    """
    keep = lb <= thr[:, None]
    if counters is not None:
        counters.pruned_pairs += int(src_sizes @ (~keep @ trg_sizes))
    rows, cols = np.nonzero(keep)
    splits = np.cumsum(np.count_nonzero(keep, axis=1))[:-1]
    all_inside = None
    if ub is not None:
        all_inside = np.split(ub[rows, cols] <= thr[rows], splits)
    return CandidateMatrix(targets=np.split(cols, splits), all_inside=all_inside)


# -- one-shot filtering (two-landmark + group-level) ---------------------


def init_oneshot_state(
    src: GroupModel,
    trg: GroupModel,
    counters: CounterSet | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The group-pair bounds (lb, ub), each z_src x z_trg.

    Costs exactly z_src * z_trg true distance evaluations between the
    landmarks; together with the per-point offsets cached by
    ``build_groups`` this is the whole bound budget of the one-shot path.
    """
    scratch = CounterSet()
    pair = brute_rows(src.landmarks, trg.landmarks, src.metric, scratch)
    if counters is not None:
        counters.bound_computations += src.z * trg.z
    return two_landmark_bounds(pair, src.radius[:, None], trg.radius[None, :])


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
    not exceed that threshold.
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
    src: GroupModel,
    trg: GroupModel,
    lb: np.ndarray,
    thr: np.ndarray,
    src_drift: np.ndarray,
    trg_drift: np.ndarray,
    counters: CounterSet | None = None,
    ub: np.ndarray | None = None,
) -> CandidateMatrix:
    """Decay last iteration's group-pair bounds, then re-derive candidates.

    ``src_drift``/``trg_drift`` hold per group the largest distance any
    member moved since the bounds were taken; a pair's lb shrinks (and its
    ub grows) by both. ``lb`` and ``ub`` are updated in place. A target
    group survives for source group a iff its decayed lb does not exceed
    ``thr[a]``:

    * nearest target (k-means): targets move, points do not; ``thr[a]`` is
      the weakest member's upper bound, its last best distance plus the
      drift of that target;
    * radius (self-set): ``thr`` is the radius, and ``ub`` is given so that
      pairs it proves within the radius are marked all-inside.
    """
    lb -= src_drift[:, None]
    lb -= trg_drift[None, :]
    np.maximum(0.0, lb, out=lb)
    if ub is not None:
        ub += src_drift[:, None]
        ub += trg_drift[None, :]
    return _cut(lb, thr, src.sizes, trg.sizes, counters, ub)


def measured_saving(point_distances: int, n1: int, n2: int) -> float:
    """Fraction of the n1*n2 point-pair work an iteration avoided."""
    total = n1 * n2
    if total <= 0:
        raise RangeError("empty pair space")
    return 1.0 - point_distances / total
