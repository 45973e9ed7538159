"""Distance metrics: weighted and unweighted L1/L2.

Bounds elsewhere rely on the triangle inequality, so L2 is the true
Euclidean distance, never its square. Kernel tiles work in their own
scale, squared under L2 (``kernel.tile_distances``); ``MetricSpec.to_tile``
and ``MetricSpec.from_tile`` are the one map between that scale and
distances, so no caller needs to know which scale a metric tiles in.

The oracles' arithmetic is ``difference_distance``: the metric's terms of
row-major differences, summed by one ``np.add.reduce`` over the
coordinates. Its coordinate-major twin, ``coordinate_distance``, takes one
contiguous array per coordinate and sums them with ``column_sum``, which
adds the terms in the pairwise order numpy's reduction uses, so both give
bitwise the same distances; n-body's list pass and force rule work
coordinate-major for contiguous gathers. ``check_domain`` reduces each set
coordinate-major too, where min and max are exact in any order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, RangeError

# DDSL metric strings -> (kind, weighted). Case-sensitive by design.
METRIC_NAMES = {
    "Unweighted L1": ("L1", False),
    "Unweighted L2": ("L2", False),
    "Weighted L1": ("L1", True),
    "Weighted L2": ("L2", True),
}

_FLOAT_MAX = float(np.finfo(np.float64).max)
_TINY = float(np.finfo(np.float64).tiny)
# Unit roundoff of float64.
U = np.finfo(np.float64).eps / 2
# How far the largest value a run forms may exceed the distance sum of
# ``MetricSpec.check_domain``: the terms of an L2 tile's one matrix product,
# and so its partial sums, add up to twice it in absolute value; the product
# is half a squared distance, so the doubled tile value stays within it
# (``kernel.tile_distances``; 1% more for rounding). A threshold squared
# into tile scale may overflow to inf, which keeps every pair. L1's bounds
# add up a few distances.
_HEADROOM = {"L1": 8.0, "L2": 2.02}


@dataclass(frozen=True, eq=False)
class MetricSpec:
    kind: str = "L2"  # "L1" | "L2"
    weighted: bool = False
    weights: np.ndarray | None = None  # length-d, all entries >= 0

    def __post_init__(self):
        if self.kind not in ("L1", "L2"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.weighted:
            if self.weights is None:
                raise ValueError("weighted metric requires a weight vector")
            w = np.asarray(self.weights, dtype=np.float64).ravel()
            if np.any(w < 0) or not np.all(np.isfinite(w)):
                raise RangeError("weights must be finite and nonnegative")
            object.__setattr__(self, "weights", w)
        elif self.weights is not None:
            raise ValueError("unweighted metric must not carry weights")

    @classmethod
    def from_name(cls, name: str, weights=None) -> "MetricSpec":
        if name not in METRIC_NAMES:
            raise ValueError(f"unknown metric string {name!r}")
        kind, weighted = METRIC_NAMES[name]
        return cls(kind=kind, weighted=weighted, weights=weights if weighted else None)

    def check_dim(self, d: int) -> None:
        if self.weighted and self.weights.shape[0] != d:
            raise DimensionMismatchError(
                f"weight vector has length {self.weights.shape[0]}, data has dim {d}"
            )

    def to_tile(self, dist):
        """A distance threshold in tile scale, rounded up: every pair whose
        direct distance is at most ``dist``, ties included, has a direct
        tile value at most the result. Under L1 that is ``dist``. Under L2
        the direct tile value is the sum s that ``rowwise_distance`` takes
        the root of, and fl(sqrt(s)) <= dist gives s <= dist^2*(1 + u)^2;
        ``dist*dist`` rounds once, so (1 + 8u) covers both with room. That
        term is what lets a squared decision respect the root's rounding:
        two different sums may round to one root."""
        if self.kind == "L1":
            return dist
        return np.multiply(dist, dist) * (1 + 8 * U)

    def from_tile(self, values, err):
        """Fast distances from tile values, and per value a bound on how
        far each may lie from the direct distance, given ``err``, the
        tiles' bound in tile scale (broadcast against ``values``). Like
        ``err``, it leaves room for a few roundings at the magnitude of the
        values, so callers may compare dist +- bound with each other and
        with thresholds directly. The distances are written over ``values``,
        a float64 array the caller no longer needs, such as a tile or its
        minima.

        Under L1 tiles are distances, returned as they are. Under L2, with
        |t - s| <= E between a tile value t and the direct sum s, the
        clamped root c of t has |sqrt(t) - sqrt(s)| <= E / max(c, sqrt(E))
        to within the u of c's rounding; the roundings of both roots add
        under 3u*max(c, sqrt(E)), under a sixth of that term, as
        ``tile_distances``' E = 4*gamma_{d+4}*S >= 20u*S and c^2 <= S + E;
        the bound returned is twice it. E is 0 only where every value of
        the tile is exact, and so its root."""
        if self.kind == "L1":
            return values, err
        dist = np.sqrt(np.maximum(values, 0.0, out=values), out=values)
        bound = np.maximum(dist, np.sqrt(np.maximum(err, _TINY)))
        return dist, np.divide(2 * err, bound, out=bound)

    def check_domain(self, *point_sets: np.ndarray) -> None:
        """Raise ``RangeError`` unless the point sets, taken together, keep
        every value a run or an oracle forms from them finite.

        With s_i the spread (max - min) of coordinate i over all the sets,
        no distance exceeds D = sum w_i*s_i (L1), or the root of
        D = sum w_i*s_i^2 (L2). A kernel tile centres its rows within the
        sets' box, so under L2 the terms of its matmul form lie within 2D;
        under L1 a bound adds up a few distances. The input is admissible
        when D times that headroom, and the number of points times the
        largest coordinate magnitude (which bounds the coordinate sums of
        centres and means), stay below the largest float. O(n*d).
        """
        self.check_dim(point_sets[0].shape[1])
        sets = [p for p in point_sets if p.size]
        if not sets:
            return
        lo, hi = _box(sets)
        with np.errstate(over="ignore", invalid="ignore"):
            spread = hi - lo
            if self.kind == "L2":
                spread *= spread
            if self.weighted:
                spread *= self.weights
            reach = np.add.reduce(spread) * _HEADROOM[self.kind]
            bulk = max(-lo.min(), hi.max()) * sum(p.shape[0] for p in sets)
        if not (reach <= _FLOAT_MAX and bulk <= _FLOAT_MAX):
            raise RangeError(
                f"coordinates too large or too spread out for {self.kind} distances to stay finite"
            )


def _box(sets: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per coordinate, the smallest and largest value over non-empty (n, d)
    sets, NaN where any is NaN. numpy reduces ``axis=0`` of a row-major
    set row by row, about ten times slower than a contiguous copy of its
    columns; one set's copy is alive at a time."""
    lo = hi = None
    for p in sets:
        cols = np.ascontiguousarray(p.T)
        p_lo, p_hi = cols.min(axis=1), cols.max(axis=1)
        del cols
        lo = p_lo if lo is None else np.minimum(lo, p_lo)
        hi = p_hi if hi is None else np.maximum(hi, p_hi)
    return lo, hi


def distance(p, q, metric: MetricSpec) -> float:
    """Exact distance between two points under ``metric``."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.ndim != 1 or p.shape != q.shape:
        raise DimensionMismatchError(f"point shapes differ: {p.shape} vs {q.shape}")
    metric.check_dim(p.shape[0])
    # one row: ``difference_distance`` takes its root in place
    return float(difference_distance((p - q)[None], metric)[0])


def rowwise_distance(a, b, metric: MetricSpec) -> np.ndarray:
    """Distances between corresponding rows of two equally-shaped matrices."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise DimensionMismatchError(f"row-paired shapes differ: {a.shape} vs {b.shape}")
    metric.check_dim(a.shape[1])
    return difference_distance(a - b, metric)


def difference_distance(diff: np.ndarray, metric: MetricSpec) -> np.ndarray:
    """Distances from coordinate differences a - b along the last axis: the
    metric's terms, in place in ``diff``, summed by one ``np.add.reduce``
    over that axis. This is the oracles' arithmetic; numpy sums 8 or more
    terms pairwise, so a plain sum taken coordinate by coordinate is not
    bitwise equal to it, but ``column_sum`` is."""
    if metric.kind == "L1":
        np.abs(diff, out=diff)
    else:
        np.multiply(diff, diff, out=diff)
    if metric.weighted:
        diff *= metric.weights
    out = np.add.reduce(diff, axis=-1)
    if metric.kind == "L2":
        np.sqrt(out, out=out)
    return out


def column_sum(terms) -> np.ndarray:
    """Sum of equally shaped term arrays, one per coordinate (a (d, ...)
    array or a sequence of d arrays), bitwise equal to ``np.add.reduce``
    over the last axis of the stacked terms: it adds them in numpy's
    pairwise order. Fewer than 8 terms are added in order; up to 128 go to
    8 accumulators, r[j] += t[8i + j], combined as ((r0 + r1) + (r2 + r3))
    + ((r4 + r5) + (r6 + r7)), with the tail added in order; more are split
    at half their number, rounded down to a multiple of 8, and the halves
    summed. numpy adds along any axis but the contiguous last one in order,
    from 0.0, so one ``np.add.reduce`` over the leading axis does the
    in-order sums, of the terms or of their rows of 8."""
    terms = np.asarray(terms)
    n = len(terms)
    if n < 8:
        return np.add.reduce(terms, axis=0)
    if n > 128:
        half = n // 2
        half -= half % 8
        out = column_sum(terms[:half])
        out += column_sum(terms[half:])
        return out
    body = n - n % 8
    r = np.add.reduce(terms[:body].reshape((body // 8, 8) + terms.shape[1:]), axis=0)
    out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for t in terms[body:]:
        out += t
    return out


def coordinate_distance(diffs: np.ndarray, metric: MetricSpec) -> np.ndarray:
    """``difference_distance`` of coordinate-major differences: ``diffs``
    is (d, m), one row per coordinate. The metric's terms are taken in
    place and summed by ``column_sum``, bitwise the row-major result."""
    if metric.kind == "L1":
        np.abs(diffs, out=diffs)
    else:
        np.multiply(diffs, diffs, out=diffs)
    if metric.weighted:
        diffs *= metric.weights[:, None]
    out = column_sum(diffs)
    if metric.kind == "L2":
        np.sqrt(out, out=out)
    return out


def gathered_distance(a, b, ids, metric: MetricSpec, block_elems: int) -> np.ndarray:
    """Distances from row i of ``a`` to each row ``b[ids[i, j]]``.

    Bitwise equal to ``rowwise_distance`` on the same pairs (differencing
    in the other order only flips signs), but without materialising the
    pairs: row blocks of about ``block_elems`` differences go through one
    reused buffer and ``difference_distance``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    metric.check_dim(a.shape[1])
    rows, k = ids.shape
    d = a.shape[1]
    out = np.empty((rows, k))
    step = max(1, block_elems // max(1, k * d))
    buf = np.empty((min(step, rows), k, d))
    for start in range(0, rows, step):
        stop = min(rows, start + step)
        terms = buf[: stop - start]
        np.take(b, ids[start:stop], axis=0, out=terms)
        terms -= a[start:stop, None, :]
        out[start:stop] = difference_distance(terms, metric)
    return out
