"""Brute-force references and plain baselines for the benchmark workloads.

Nothing here imports accd: the answers are recomputed from the raw input
arrays. Every function has two modes.

* ``exact=True`` is the reference. A fast BLAS (L2) or ``cdist`` (L1) pass
  finds candidates with a generous rounding margin, and every decision the
  margin leaves open is settled by direct differencing, the arithmetic of
  ``accd.oracles``. Its answers therefore equal an exhaustive direct-
  differencing brute force, at a fraction of the cost.
* ``exact=False`` is the plain single-threaded-style baseline a user would
  write: BLAS matmul with argpartition or a threshold, or Lloyd on
  ``cdist(..., "cityblock")``. It is timed as context, and its answers are
  compared with the reference; a mismatch is the baseline's own failure.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

# Row block for the full distance matrices, so a block stays near 32 MB.
_BLOCK_ELEMS = 4_000_000
# Candidate slack, relative to the squared norms (L2) or the row minimum
# (L1). Rounding error is below 1e-13 of those at the workloads' d and
# coordinate range, so this only ever admits a few extra candidates.
_REL_MARGIN = 1e-9


def exact_distances(a: np.ndarray, b: np.ndarray, metric: str) -> np.ndarray:
    """Row i of ``a`` against row i of ``b`` by direct differencing.

    The reduction runs over the last, contiguous axis, the same inner loop
    as ``accd.dataset.brute_rows``, so results are bitwise equal to it.
    """
    diff = a - b
    terms = np.abs(diff) if metric == "L1" else diff * diff
    out = np.add.reduce(terms, axis=-1)
    return out if metric == "L1" else np.sqrt(out)


def _row_blocks(n_rows: int, n_cols: int):
    step = max(1, _BLOCK_ELEMS // max(1, n_cols))
    for start in range(0, n_rows, step):
        yield start, min(n_rows, start + step)


def _sq_norms(x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, x)


def _approx_sq(a: np.ndarray, b: np.ndarray, na: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """Squared L2 distances through one matmul (cancellation-prone)."""
    sq = a @ b.T
    sq *= -2.0
    sq += na[:, None]
    sq += nb[None, :]
    return sq


def _first_k_per_row(rows: np.ndarray, cols: np.ndarray, dist: np.ndarray, n_rows: int, k: int):
    """From candidate triples, the k smallest (distance, id) per row."""
    order = np.lexsort((cols, dist, rows))
    rows, cols, dist = rows[order], cols[order], dist[order]
    starts = np.searchsorted(rows, np.arange(n_rows))
    take = (starts[:, None] + np.arange(k)[None, :]).ravel()
    return cols[take].reshape(n_rows, k), dist[take].reshape(n_rows, k)


def knn(src: np.ndarray, trg: np.ndarray, k: int, exact: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per source row, the k nearest target ids under L2, sorted by
    (distance, id), and their distances."""
    n1 = src.shape[0]
    ns, nt = _sq_norms(src), _sq_norms(trg)
    ids = np.empty((n1, k), dtype=np.int64)
    dists = np.empty((n1, k), dtype=np.float64)
    for start, stop in _row_blocks(n1, trg.shape[0]):
        sq = _approx_sq(src[start:stop], trg, ns[start:stop], nt)
        if not exact:
            part = np.argpartition(sq, k - 1, axis=1)[:, :k]
            part_sq = np.take_along_axis(sq, part, axis=1)
            order = np.lexsort((part, part_sq), axis=1)
            ids[start:stop] = np.take_along_axis(part, order, axis=1)
            dists[start:stop] = np.sqrt(np.maximum(np.take_along_axis(part_sq, order, axis=1), 0.0))
            continue
        kth = np.partition(sq, k - 1, axis=1)[:, k - 1]
        slack = 2.0 * _REL_MARGIN * (ns[start:stop] + nt.max())
        rows, cols = np.nonzero(sq <= (kth + slack)[:, None])
        d = exact_distances(src[start + rows], trg[cols], "L2")
        ids[start:stop], dists[start:stop] = _first_k_per_row(rows, cols, d, stop - start, k)
    return ids, dists


def radius_pairs(pos: np.ndarray, radius: float, exact: bool) -> tuple[np.ndarray, np.ndarray]:
    """All pairs (i, j), i != j, with L2 distance <= radius, sorted by
    (i, j)."""
    n = pos.shape[0]
    norms = _sq_norms(pos)
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    r2 = radius * radius
    for start, stop in _row_blocks(n, n):
        sq = _approx_sq(pos[start:stop], pos, norms[start:stop], norms)
        if exact:
            slack = _REL_MARGIN * (norms[start:stop, None] + norms[None, :]) + r2 * 1e-12
            rows, cols = np.nonzero(sq <= r2 + slack)
            keep = exact_distances(pos[start + rows], pos[cols], "L2") <= radius
            rows, cols = rows[keep], cols[keep]
        else:
            rows, cols = np.nonzero(sq <= r2)
        rows = rows + start
        off = rows != cols
        out_i.append(rows[off])
        out_j.append(cols[off])
    return np.concatenate(out_i), np.concatenate(out_j)


def force_step(
    pos: np.ndarray,
    vel: np.ndarray,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    dt: float,
    softening: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One step of softened inverse-square attraction over (i, j)-sorted
    neighbour pairs, unit mass, explicit Euler."""
    acc = np.zeros_like(pos)
    if pair_i.size:
        diff = pos[pair_j] - pos[pair_i]
        r2 = np.add.reduce(diff * diff, axis=1) + softening * softening
        np.add.at(acc, pair_i, diff * (r2**-1.5)[:, None])
    vel = vel + acc * dt
    return pos + vel * dt, vel


def nbody(
    pos0: np.ndarray, radius: float, steps: int, dt: float, softening: float, exact: bool
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Per step, the CSR neighbour lists (offsets, ids) on that step's
    positions, plus the trajectory (steps + 1 position frames)."""
    n = pos0.shape[0]
    pos = pos0.copy()
    vel = np.zeros_like(pos)
    lists = []
    frames = [pos.copy()]
    for _ in range(steps):
        pi, pj = radius_pairs(pos, radius, exact)
        lists.append((np.searchsorted(pi, np.arange(n + 1)), pj))
        pos, vel = force_step(pos, vel, pi, pj, dt, softening)
        frames.append(pos.copy())
    return lists, np.stack(frames)


def _nearest_l1(points: np.ndarray, centers: np.ndarray, exact: bool) -> np.ndarray:
    dist = cdist(points, centers, "cityblock")
    best = np.argmin(dist, axis=1)
    if not exact:
        return best
    low = dist[np.arange(points.shape[0]), best]
    close = dist <= (low + 2.0 * _REL_MARGIN * (low + 1.0))[:, None]
    for i in np.flatnonzero(close.sum(axis=1) > 1):
        cand = np.flatnonzero(close[i])
        d = exact_distances(points[i][None, :], centers[cand], "L1")
        best[i] = cand[np.lexsort((cand, d))[0]]
    return best


def member_means(values: np.ndarray, assign: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Mean of each cluster's members in ascending member order; an empty
    cluster keeps its previous centre."""
    out = prev.copy()
    for g in range(prev.shape[0]):
        members = np.flatnonzero(assign == g)
        if members.size:
            out[g] = np.add.reduce(values[members], axis=0) / members.size
    return out


def kmeans_l1(
    points: np.ndarray, init: np.ndarray, max_iter: int, exact: bool
) -> tuple[np.ndarray, np.ndarray, int]:
    """Lloyd iteration under L1 with (distance, id) tie-break. Stops when
    an assignment repeats or after ``max_iter`` iterations. Returns the
    final assignment, the centres after the last update, and the
    iteration count."""
    centers = init.copy()
    assign = None
    it = 0
    for it in range(1, max_iter + 1):
        new = _nearest_l1(points, centers, exact)
        centers = member_means(points, new, centers)
        if assign is not None and np.array_equal(new, assign):
            break
        assign = new
    return new, centers, it
