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

All filters are conservative: a pruned pair is provably outside the query,
so downstream results equal brute force exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counters import CounterSet
from .dataset import Dataset, brute_rows
from .errors import InvalidQueryError, RangeError, StateError
from .metrics import MetricSpec
from .oracles import group_means

_LLOYD_ITERATIONS = 5
_ASSIGN_BLOCK_ELEMS = 4_000_000


@dataclass(frozen=True)
class TopKQuery:
    k: int


@dataclass(frozen=True)
class RadiusQuery:
    radius: float


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
class BoundState:
    """Cached group-pair distances and bounds carried across filter calls.

    For one-shot filtering only ``group_pair_dist``/``lb``/``ub`` are set.
    Iterative nearest-target runs track per-point best distances and the
    owning target so trace bounds can decay them; iterative self-set runs
    keep the group-pair ``ub`` matrix instead.
    """

    lb: np.ndarray  # z_src x z_trg
    ub: np.ndarray | None = None
    group_pair_dist: np.ndarray | None = None
    prev_best_dist: np.ndarray | None = None  # per source point
    prev_best_target: np.ndarray | None = None  # per source point
    target_group_of: np.ndarray | None = None  # target item -> target group
    point_ub: np.ndarray | None = None  # scratch: per-point upper bound after decay
    iteration: int = 0


@dataclass
class CandidateMatrix:
    """Per source group, the sorted target groups surviving the filter.

    ``all_inside[g]`` (radius queries only) marks survivors whose upper
    bound already proves every member pair lies within the radius.
    """

    targets: list[np.ndarray]
    all_inside: list[np.ndarray] | None = None
    n_target_groups: int = 0

    def key(self, g: int) -> tuple:
        return tuple(int(t) for t in self.targets[g])

    @classmethod
    def full(cls, z_src: int, z_trg: int) -> "CandidateMatrix":
        all_targets = np.arange(z_trg, dtype=np.int64)
        return cls(
            targets=[all_targets.copy() for _ in range(z_src)],
            all_inside=None,
            n_target_groups=z_trg,
        )


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
    elementwise on arrays.
    """
    return np.maximum(0.0, d_ref - d_a - d_b), d_ref + d_a + d_b


def group_bounds(d_ref, rad_a, rad_b):
    """Group-pair bounds: two-landmark algebra with group radii."""
    return two_landmark_bounds(d_ref, rad_a, rad_b)


# -- one-shot filtering (two-landmark + group-level) ---------------------


def init_oneshot_state(
    src: GroupModel,
    trg: GroupModel,
    counters: CounterSet | None = None,
) -> BoundState:
    """Compute landmark-pair distances and the group-pair bounds.

    Costs exactly z_src * z_trg true distance evaluations; together with
    the per-point offsets cached by ``build_groups`` this is the whole
    bound budget of the one-shot path.
    """
    scratch = CounterSet()
    pair = brute_rows(src.landmarks, trg.landmarks, src.metric, scratch)
    if counters is not None:
        counters.bound_computations += src.z * trg.z
    lb, ub = group_bounds(pair, src.radius[:, None], trg.radius[None, :])
    return BoundState(lb=lb, ub=ub, group_pair_dist=pair)


def filter_oneshot(
    src: GroupModel,
    trg: GroupModel,
    state: BoundState,
    query: TopKQuery | RadiusQuery,
    counters: CounterSet | None = None,
) -> CandidateMatrix:
    """Emit per-source-group surviving target groups.

    Radius queries keep groups with lb <= R and mark ub <= R pairs as
    all-inside. Top-K queries build a per-source-group threshold by
    accumulating target group sizes in ascending-ub order until at least K
    points are covered; a group survives iff its lb does not exceed that
    threshold.
    """
    if state.group_pair_dist is None or state.ub is None:
        raise StateError("one-shot filtering requires an initialized bound state")
    lb, ub = state.lb, state.ub
    sizes = trg.sizes
    src_sizes = src.sizes
    z_src, z_trg = lb.shape
    targets: list[np.ndarray] = []
    pruned = 0

    if isinstance(query, RadiusQuery):
        if query.radius <= 0:
            raise InvalidQueryError("radius must be positive")
        all_inside: list[np.ndarray] = []
        for a in range(z_src):
            keep = np.flatnonzero(lb[a] <= query.radius)
            targets.append(keep)
            all_inside.append(ub[a, keep] <= query.radius)
            dropped = np.setdiff1d(np.arange(z_trg), keep, assume_unique=True)
            pruned += int(src_sizes[a] * sizes[dropped].sum())
        if counters is not None:
            counters.pruned_pairs += pruned
        return CandidateMatrix(targets=targets, all_inside=all_inside, n_target_groups=z_trg)

    k = query.k
    if k < 1 or k > int(sizes.sum()):
        raise InvalidQueryError(f"top-K count {k} out of range for {sizes.sum()} targets")
    for a in range(z_src):
        order = np.lexsort((np.arange(z_trg), ub[a]))
        covered = np.cumsum(sizes[order])
        cut = int(np.searchsorted(covered, k))
        tau = ub[a, order[cut]]
        keep = np.flatnonzero(lb[a] <= tau)
        targets.append(keep)
        dropped = np.setdiff1d(np.arange(z_trg), keep, assume_unique=True)
        pruned += int(src_sizes[a] * sizes[dropped].sum())
    if counters is not None:
        counters.pruned_pairs += pruned
    return CandidateMatrix(targets=targets, all_inside=None, n_target_groups=z_trg)


# -- iterative filtering (trace + group-level) ---------------------------


def group_max(values: np.ndarray, group_of: np.ndarray, z: int) -> np.ndarray:
    out = np.zeros(z, dtype=np.float64)
    np.maximum.at(out, group_of, values)
    return out


def filter_iterative(
    state: BoundState,
    drifts: np.ndarray,
    query: TopKQuery | RadiusQuery,
    src_gm: GroupModel,
    counters: CounterSet | None = None,
    trg_sizes: np.ndarray | None = None,
) -> CandidateMatrix:
    """Decay carried bounds by drift and re-derive candidates.

    Nearest-target mode (TopKQuery, iterative two-set): ``drifts`` holds
    one entry per target item; the group decay is the max drift inside
    each target group, the per-point upper bound is last iteration's best
    distance plus the drift of its owning target. A target group survives
    for a whole source group unless its decayed lb beats the weakest
    member's upper bound.

    Radius mode (iterative self-set): ``drifts`` holds one entry per
    point; both sides of each group pair decay by their group's max
    drift. Mutates ``state`` in place (lb, ub, point_ub).
    """
    if state.iteration < 1:
        raise StateError("iterative filtering needs a seeded first iteration")
    z_src = state.lb.shape[0]
    z_trg = state.lb.shape[1]
    targets: list[np.ndarray] = []
    pruned = 0

    if isinstance(query, RadiusQuery):
        gd = group_max(drifts, src_gm.group_of, z_src)
        state.lb = np.maximum(0.0, state.lb - gd[:, None] - gd[None, :])
        state.ub = state.ub + gd[:, None] + gd[None, :]
        sizes = src_gm.sizes
        all_inside: list[np.ndarray] = []
        for a in range(z_src):
            keep = np.flatnonzero(state.lb[a] <= query.radius)
            targets.append(keep)
            all_inside.append(state.ub[a, keep] <= query.radius)
            dropped = np.setdiff1d(np.arange(z_trg), keep, assume_unique=True)
            pruned += int(sizes[a] * sizes[dropped].sum())
        if counters is not None:
            counters.pruned_pairs += pruned
        return CandidateMatrix(targets=targets, all_inside=all_inside, n_target_groups=z_trg)

    if state.prev_best_dist is None or state.target_group_of is None:
        raise StateError("nearest-target filtering requires per-point best state")
    if trg_sizes is None:
        trg_sizes = np.bincount(state.target_group_of, minlength=z_trg).astype(np.int64)
    gd = np.zeros(z_trg, dtype=np.float64)
    np.maximum.at(gd, state.target_group_of, drifts)
    state.lb = np.maximum(0.0, state.lb - gd[None, :])
    state.point_ub = state.prev_best_dist + drifts[state.prev_best_target]
    weakest = group_max(state.point_ub, src_gm.group_of, z_src)
    src_sizes = src_gm.sizes
    for a in range(z_src):
        keep = np.flatnonzero(state.lb[a] <= weakest[a])
        targets.append(keep)
        dropped = np.setdiff1d(np.arange(z_trg), keep, assume_unique=True)
        pruned += int(src_sizes[a] * trg_sizes[dropped].sum())
    if counters is not None:
        counters.pruned_pairs += pruned
    return CandidateMatrix(targets=targets, all_inside=None, n_target_groups=z_trg)


def measured_saving(point_distances: int, n1: int, n2: int) -> float:
    """Fraction of the n1*n2 point-pair work an iteration avoided."""
    total = n1 * n2
    if total <= 0:
        raise RangeError("empty pair space")
    return 1.0 - point_distances / total
