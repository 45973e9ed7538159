"""Fast distance tiles with a certified error bound.

Stands in for the accelerator-side compute. Each tile row comes with a
rigorous bound ``err`` on how far its fast values may lie from the direct-
differencing values of the oracles (``metrics.rowwise_distance``), so
callers can decide on fast values where the bound settles a decision and
recompute the rest exactly. Tiles are in tile scale: L1 distances, from
``cdist(..., "cityblock", w=...)``, which differences directly, and L2
squared distances, never rooted here; ``MetricSpec.to_tile`` and
``MetricSpec.from_tile`` map between that scale and distances. L2 takes
one matrix product per tile: each point set is one operand of rows
[x, |x|^2/2, 1] (``fast_rows``; only this module knows that layout), x
centred on a per-run centre, which keeps the cancellation error
proportional to the data's spread, not its offset. Fast values may change
in their last bits with the tile's shape. Each call counts as one executed
tile that streams its row and column operands once.
"""

from __future__ import annotations

import math

import numpy as np

from .counters import CounterSet
from .errors import DimensionMismatchError
from .metrics import U, MetricSpec

# gamma_n = n*u / (1 - n*u), u the unit roundoff ``U``, bounds the relative
# error of an n-term sum or dot product (Higham, Accuracy and Stability, 3.1).


def gamma(n: int) -> float:
    return n * U / (1 - n * U)


def _cdist(*args, **kwargs):
    """scipy's ``cdist``, bound in this function's place on the first L1
    tile, so that compiling a program or an L2 run never loads scipy."""
    global _cdist
    from scipy.spatial.distance import cdist as _cdist

    return _cdist(*args, **kwargs)


def fast_rows(values: np.ndarray, centre: np.ndarray, metric: MetricSpec) -> np.ndarray:
    """One point set as ``tile_distances`` takes it: for L2 the (n, d + 2)
    rows [x, |x|^2/2, 1], x the row minus ``centre``, scaled by sqrt(w) if
    weighted; for L1 the rows unchanged (no copy)."""
    if metric.kind == "L1":
        return values
    rows = np.empty((values.shape[0], values.shape[1] + 2))
    x = np.subtract(values, centre, out=rows[:, :-2])
    if metric.weighted:
        x *= np.sqrt(metric.weights)
    np.einsum("ij,ij->i", x, x, out=rows[:, -2])
    rows[:, -2] *= 0.5
    rows[:, -1] = 1.0
    return rows


def tile_distances(
    a_rows: np.ndarray, b_rows: np.ndarray, metric: MetricSpec, counters: CounterSet | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Fast tile values for one (source rows x target rows) region, and
    per row a bound ``err`` with |fast - direct| <= err for every entry.

    The rows are ``fast_rows`` output. Under L1 the values are distances
    and direct is ``rowwise_distance``. Under L2 they are squared
    distances, and direct is the sum direct differencing adds up before
    its root (direct^2): the source block is copied as [-a, 1, |a|^2/2],
    whose product with the target rows sums the d + 2 terms of
    |a - b|^2 / 2, and the tile doubles it, with no clamp and no root, so
    a value may lie up to E below 0.
    Every row of an L2 tile shares one bound E. ``err`` leaves room for a
    few roundings at the magnitude of the row's values, so callers may
    compare ``fast +- err`` with each other and with thresholds in tile
    scale (``MetricSpec.to_tile``) directly.

    Why it holds (u: unit roundoff, T: exact value).
    * L1: both sides sum the same d terms w_i*|a_i - b_i|, each within 2u,
      in some order, so each is within gamma_{d+1}*T of T and they differ
      by at most 2.01*gamma_{d+1}*fast; ``err`` = 4*gamma_{d+2}*row max.
    * L2, with S = (max|a| + max|b|)^2 over the tile: the terms' absolute
      sum is at most |a||b| + |a|^2/2 + |b|^2/2 <= S/2, and each stored
      half-norm is within gamma_d of exact, so the doubled product is
      within (gamma_{d+2} + gamma_d)*S (to first order) of |a - b|^2 for
      the centred scaled rows; centring and scaling move each coordinate
      difference by at most gamma_3*(|a_i| + |b_i|), so |a - b|^2 by
      2.1*gamma_3*S; direct differencing's sum is within gamma_{d+3}*S of
      exact. Total: (3d + 11.3)*u*S < 3*gamma_{d+4}*S, and ``err`` = E =
      4*gamma_{d+4}*S (the 4th covers rounding in S). Rows centred within
      the sets' box have |x|^2 <= D, the distance sum of
      ``MetricSpec.check_domain``, so the terms' absolute sum, and every
      partial sum, stays within the 2D that check leaves room for
      (unhalved norms would give (|a| + |b|)^2, up to 4D).
    """
    if a_rows.shape[1] != b_rows.shape[1]:
        raise DimensionMismatchError(f"dim mismatch: {a_rows.shape[1]} vs {b_rows.shape[1]}")
    d = a_rows.shape[1] if metric.kind == "L1" else a_rows.shape[1] - 2
    metric.check_dim(d)
    if metric.kind == "L1":
        tile = _cdist(a_rows, b_rows, "cityblock", w=metric.weights)
        err = 4 * gamma(d + 2) * tile.max(axis=1, initial=0.0)
    else:
        src = np.empty(a_rows.shape)
        np.negative(a_rows[:, :d], out=src[:, :d])
        src[:, d:] = a_rows[:, [d + 1, d]]
        tile = src @ b_rows.T
        tile *= 2.0
        reach = math.sqrt(a_rows[:, d].max(initial=0.0)) + math.sqrt(b_rows[:, d].max(initial=0.0))
        # S = 2*reach^2, from the half-norms
        err = np.full(a_rows.shape[0], 8 * gamma(d + 4) * reach * reach)
    if counters is not None:
        counters.point_distances += tile.size
        counters.mac_ops += tile.size * d
        counters.tiles_executed += 1
        counters.bytes_streamed += (a_rows.shape[0] + b_rows.shape[0]) * d * 8
    return tile, err
