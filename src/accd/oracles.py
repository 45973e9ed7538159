"""Brute-force reference implementations.

Each oracle recomputes its answer by exhaustive enumeration over the raw
point arrays, independent of the grouped/filtered/blocked execution paths
it is used to verify. Shadow-mode runs and the acceptance suite treat
oracle output as ground truth.
"""

from __future__ import annotations

import numpy as np

from .dataset import NeighborLists, brute_rows, id_dtype
from .errors import RangeError
from .metrics import MetricSpec

_ROW_BLOCK_ELEMS = 4_000_000


def group_members(assign: np.ndarray, k: int) -> list[np.ndarray]:
    """Per group 0..k-1, its member ids in ascending order.

    One stable argsort of ``assign`` split at the group counts; equal to
    ``[np.flatnonzero(assign == g) for g in range(k)]`` without k scans.
    """
    order = np.argsort(assign, kind="stable")
    bounds = [0, *np.cumsum(np.bincount(assign, minlength=k)).tolist()]
    return [order[a:b] for a, b in zip(bounds, bounds[1:])]


def group_means(
    values: np.ndarray, assign: np.ndarray, k: int, prev: np.ndarray
) -> np.ndarray:
    """Mean of each group's member rows, summed in ascending member order.

    Empty groups keep their previous row. Both the optimized pipeline and
    the Lloyd oracle call this, so their centroid streams stay bitwise
    identical whenever their assignments agree.

    For d >= 2 one ``np.bincount`` per coordinate adds each group's values
    in ascending member order from +0.0, bitwise what
    ``np.add.reduce(values[members], axis=0)`` gives there. A single column
    reduces pairwise instead, so d = 1 keeps the per-group reduce.
    """
    out = prev.copy()
    if values.shape[1] == 1:
        for g, members in enumerate(group_members(assign, k)):
            if members.size:
                out[g] = np.add.reduce(values[members], axis=0) / members.size
        return out
    counts = np.bincount(assign, minlength=k)
    sums = np.column_stack(
        [np.bincount(assign, weights=values[:, c], minlength=k) for c in range(values.shape[1])]
    )
    full = counts > 0
    out[full] = sums[full] / counts[full, None]
    return out


def nearest_assign(
    points: np.ndarray,
    centers: np.ndarray,
    metric: MetricSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Per point: nearest center under (distance, id) tie-break, plus that
    distance. Row-blocked brute force."""
    metric.check_domain(points, centers)
    n = points.shape[0]
    step = max(1, _ROW_BLOCK_ELEMS // max(1, centers.shape[0] * points.shape[1]))
    assign = np.empty(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float64)
    for start in range(0, n, step):
        stop = min(n, start + step)
        d = brute_rows(points[start:stop], centers, metric)
        a = np.argmin(d, axis=1)  # first occurrence = lowest id on ties
        assign[start:stop] = a
        best[start:stop] = d[np.arange(stop - start), a]
    return assign, best


def lloyd_kmeans(
    points: np.ndarray,
    init_centers: np.ndarray,
    metric: MetricSpec,
    max_iter: int,
) -> tuple[list[np.ndarray], np.ndarray, int]:
    """Plain Lloyd iteration. Returns per-iteration assignments, final
    centers, and the number of iterations executed (stops early once
    assignments repeat)."""
    centers = np.array(init_centers, dtype=np.float64, copy=True)
    k = centers.shape[0]
    history: list[np.ndarray] = []
    prev = None
    it = 0
    for it in range(1, max_iter + 1):
        assign, _ = nearest_assign(points, centers, metric)
        history.append(assign)
        centers = group_means(points, assign, k, centers)
        if prev is not None and np.array_equal(prev, assign):
            break
        prev = assign
    return history, centers, it


def knn_topk(
    src: np.ndarray,
    trg: np.ndarray,
    metric: MetricSpec,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Full-sort top-k per source row with (distance, id) tie-break.

    Each row block of the distance matrix is cut at each row's k-th
    smallest value by ``np.partition``; one sort of the entries up to the
    cut, ties at it included, gives the full-sort prefix (``_first_k``).
    """
    n2 = trg.shape[0]
    if k < 1 or k > n2:
        raise RangeError(f"k={k} out of range for {n2} targets")
    metric.check_domain(src, trg)
    n1 = src.shape[0]
    out_ids = np.empty((n1, k), dtype=np.int64)
    out_d = np.empty((n1, k), dtype=np.float64)
    step = max(1, _ROW_BLOCK_ELEMS // max(1, n2 * src.shape[1]))
    for start in range(0, n1, step):
        stop = min(n1, start + step)
        d = brute_rows(src[start:stop], trg, metric)
        out_ids[start:stop], out_d[start:stop] = _first_k(d, k)
    return out_ids, out_d


def _first_k(d: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first k columns and values in (value, column) order, by
    one sort of the entries up to each row's k-th smallest value: every
    entry below it, and the lowest columns of those equal to it."""
    kth = np.partition(d, k - 1, axis=1)[:, k - 1]
    r, c = np.nonzero(d <= kth[:, None])  # row-major: columns ascend in a row
    v = d[r, c]
    order = np.lexsort((v, r))  # stable: equal values keep their columns' order
    starts = np.searchsorted(r, np.arange(d.shape[0]))
    at = order[(starts[:, None] + np.arange(k)).ravel()]
    return c[at].reshape(-1, k), v[at].reshape(-1, k)


def radius_neighbors(
    points: np.ndarray,
    metric: MetricSpec,
    radius: float,
) -> NeighborLists:
    """Per point, the sorted ids j != i with d(i, j) <= radius, as CSR.
    Each row block of the distance matrix gives its hits, row-major, by
    one ``np.nonzero``; the self pairs are dropped."""
    if not radius > 0:
        raise RangeError("radius must be positive")
    metric.check_domain(points)
    n = points.shape[0]
    dtype = id_dtype(n)
    counts = np.empty(n, dtype=np.int64)
    ids: list[np.ndarray] = [np.empty(0, dtype=dtype)]
    step = max(1, _ROW_BLOCK_ELEMS // max(1, n * points.shape[1]))
    for start in range(0, n, step):
        stop = min(n, start + step)
        d = brute_rows(points[start:stop], points, metric)
        r, c = np.nonzero(d <= radius)
        other = c != r + start
        counts[start:stop] = np.bincount(r[other], minlength=stop - start)
        ids.append(c[other].astype(dtype))
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return NeighborLists(offsets=offsets, ids=np.concatenate(ids))
