"""Blocked distance-computation kernel.

Stands in for the accelerator-side compute: L2 distances come from the
decomposition

    dist2[i, j] = rss(A)[i] - 2 * dot(A_i, B_j) + rss(B)[j]

with row-wise square sums (RSS) precomputed and the dot products
accumulated tile-wise. L1 has no such decomposition and uses a direct
elementwise loop.

Numeric results are independent of the tile edge ``blk``: every
reduction over the feature dimension runs in fixed ascending index order
with a single accumulator, so ``blk`` only shapes the tile counters
(``tiles_executed``, ``bytes_streamed``). The explorer's simd and unroll
factors are cost-model parameters and never reach the kernel.
Squared distances are clamped at zero before the square root; the
decomposition can go slightly negative under cancellation.
"""

from __future__ import annotations

import math

import numpy as np

from .counters import CounterSet
from .errors import DimensionMismatchError
from .metrics import MetricSpec


def rss(mat: np.ndarray) -> np.ndarray:
    """Row-wise square sum, accumulated in ascending dimension order."""
    mat = np.asarray(mat, dtype=np.float64)
    out = np.zeros(mat.shape[0], dtype=np.float64)
    for k in range(mat.shape[1]):
        col = mat[:, k]
        out += col * col
    return out


def weighted_rss(mat: np.ndarray, weights: np.ndarray) -> np.ndarray:
    out = np.zeros(mat.shape[0], dtype=np.float64)
    for k in range(mat.shape[1]):
        col = mat[:, k]
        out += weights[k] * (col * col)
    return out


def _dot_tile(a: np.ndarray, b: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    """Pairwise (weighted) dot products, fixed ascending-k accumulation."""
    out = np.zeros((a.shape[0], b.shape[0]), dtype=np.float64)
    if weights is None:
        for k in range(a.shape[1]):
            out += a[:, k, None] * b[None, :, k]
    else:
        for k in range(a.shape[1]):
            out += weights[k] * (a[:, k, None] * b[None, :, k])
    return out


def _l1_tile(a: np.ndarray, b: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    out = np.zeros((a.shape[0], b.shape[0]), dtype=np.float64)
    if weights is None:
        for k in range(a.shape[1]):
            out += np.abs(a[:, k, None] - b[None, :, k])
    else:
        for k in range(a.shape[1]):
            out += weights[k] * np.abs(a[:, k, None] - b[None, :, k])
    return out


def _record_tile(counters: CounterSet | None, rows: int, cols: int, d: int, blk: int):
    if counters is None:
        return
    counters.point_distances += rows * cols
    counters.mac_ops += rows * cols * d
    row_tiles = math.ceil(rows / blk)
    col_tiles = math.ceil(cols / blk)
    counters.tiles_executed += row_tiles * col_tiles
    # Each blk x blk tile streams its row and column slabs once.
    full_r, rem_r = divmod(rows, blk)
    full_c, rem_c = divmod(cols, blk)
    row_loads = (full_r * blk + rem_r) * col_tiles
    col_loads = (full_c * blk + rem_c) * row_tiles
    counters.bytes_streamed += (row_loads + col_loads) * d * 8


def tile_distances(
    a_rows: np.ndarray,
    b_rows: np.ndarray,
    metric: MetricSpec,
    blk: int,
    counters: CounterSet | None = None,
    rss_a: np.ndarray | None = None,
    rss_b: np.ndarray | None = None,
) -> np.ndarray:
    """Distances for one (source rows x target rows) region.

    ``blk`` is the tile edge the counters are modelled with. Precomputed
    RSS vectors for the region's rows may be passed in to reuse work
    across tiles of the same dataset.
    """
    if a_rows.shape[1] != b_rows.shape[1]:
        raise DimensionMismatchError(
            f"dim mismatch: {a_rows.shape[1]} vs {b_rows.shape[1]}"
        )
    d = a_rows.shape[1]
    metric.check_dim(d)
    w = metric.weights if metric.weighted else None
    if metric.kind == "L1":
        out = _l1_tile(a_rows, b_rows, w)
    else:
        if rss_a is None:
            rss_a = rss(a_rows) if w is None else weighted_rss(a_rows, w)
        if rss_b is None:
            rss_b = rss(b_rows) if w is None else weighted_rss(b_rows, w)
        dot = _dot_tile(a_rows, b_rows, w)
        sq = (rss_a[:, None] - 2.0 * dot) + rss_b[None, :]
        np.maximum(sq, 0.0, out=sq)
        out = np.sqrt(sq)
    _record_tile(counters, a_rows.shape[0], b_rows.shape[0], d, blk)
    return out
