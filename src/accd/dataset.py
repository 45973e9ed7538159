"""Dataset storage, CSV loading, the brute-force distance oracle, and the
row-wise (distance, id) sort.

All values are held as float64 regardless of the declared DDSL dtype; the
declared type only affects the bandwidth model and optional storage modes.
``pairwise_brute`` is the reference implementation every optimized path is
checked against: it evaluates each entry by direct elementwise
differencing, with per-entry results bitwise equal to ``distance``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .counters import CounterSet
from .errors import DimensionMismatchError, FormatError, RangeError, SizeMismatchError
from .metrics import MetricSpec

# Rows-per-block budget so a block of the broadcast difference tensor
# stays around 32 MB of float64.
_BLOCK_ELEMS = 4_000_000


@dataclass
class Dataset:
    values: np.ndarray  # n x d float64, C-contiguous
    ids: np.ndarray  # n stable point ids
    declared_dtype: str = "float64"

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DimensionMismatchError("dataset values must be a 2-D matrix")
        if not np.all(np.isfinite(self.values)):
            row, col = np.argwhere(~np.isfinite(self.values))[0]
            raise FormatError("non-finite value in dataset", int(row) + 1, int(col) + 1)
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.ids.shape != (self.values.shape[0],):
            raise SizeMismatchError(
                f"ids shape {self.ids.shape} does not match values shape {self.values.shape}"
            )
        sorted_ids = np.sort(self.ids)
        if not np.array_equal(sorted_ids, np.arange(self.n)):
            raise RangeError("ids must be a permutation of 0..n-1")

    @classmethod
    def from_values(cls, values, declared_dtype: str = "float64") -> "Dataset":
        values = np.ascontiguousarray(values, dtype=np.float64)
        return cls(values=values, ids=np.arange(values.shape[0]), declared_dtype=declared_dtype)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass
class DistanceMatrix:
    values: np.ndarray  # n1 x n2 float64
    row_ids: np.ndarray
    col_ids: np.ndarray


@dataclass
class TopKResult:
    """Per source point, k (target id, distance) pairs.

    Rows are sorted by (distance, id) ascending for scope="smallest" and by
    (-distance, id) ascending for scope="largest"; ids within a row are
    distinct.
    """

    ids: np.ndarray  # n x k
    distances: np.ndarray  # n x k
    scope: str = "smallest"
    row_ids: np.ndarray | None = None


def _parse_cell(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def load_csv(path, declared_dtype: str = "float64") -> Dataset:
    """Load a comma-separated point matrix.

    An optional single header row is auto-detected (first row with any
    non-numeric cell). Point id = data row index. Raises ``FormatError``
    with 1-based row/col on any non-numeric cell, non-finite value, or
    ragged row; IO problems propagate as ``OSError``.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        raw_rows = [row for row in csv.reader(fh)]
    raw_rows = [row for row in raw_rows if row]  # drop blank lines
    if not raw_rows:
        raise FormatError("empty file", 1, 1)

    first = [_parse_cell(c.strip()) for c in raw_rows[0]]
    has_header = any(v is None for v in first)
    data_rows = raw_rows[1:] if has_header else raw_rows
    if not data_rows:
        raise FormatError("no data rows after header", 2, 1)

    width = len(data_rows[0])
    out = np.empty((len(data_rows), width), dtype=np.float64)
    for i, row in enumerate(data_rows):
        file_row = i + 2 if has_header else i + 1
        if len(row) != width:
            raise FormatError(
                f"expected {width} columns, found {len(row)}", file_row, len(row) + 1
            )
        for j, cell in enumerate(row):
            v = _parse_cell(cell.strip())
            if v is None:
                raise FormatError(f"non-numeric cell {cell.strip()!r}", file_row, j + 1)
            if not np.isfinite(v):
                raise FormatError("non-finite value", file_row, j + 1)
            out[i, j] = v
    return Dataset(values=out, ids=np.arange(len(data_rows)), declared_dtype=declared_dtype)


def _brute_block(src_block: np.ndarray, trg: np.ndarray, metric: MetricSpec) -> np.ndarray:
    diff = src_block[:, None, :] - trg[None, :, :]
    if metric.kind == "L1":
        terms = np.abs(diff)
    else:
        terms = diff * diff
    if metric.weighted:
        terms = metric.weights * terms
    out = np.add.reduce(terms, axis=2)
    if metric.kind == "L2":
        out = np.sqrt(out)
    return out


def pairwise_brute(
    src: Dataset,
    trg: Dataset,
    metric: MetricSpec,
    counters: CounterSet | None = None,
) -> DistanceMatrix:
    """Exact n1 x n2 distance matrix by direct differencing.

    This is the oracle every filtered/blocked path is compared against.
    Adds n1*n2 to the distance counter.
    """
    if src.d != trg.d:
        raise DimensionMismatchError(f"dim mismatch: {src.d} vs {trg.d}")
    metric.check_dim(src.d)
    out = brute_rows(src.values, trg.values, metric, counters)
    return DistanceMatrix(values=out, row_ids=src.ids.copy(), col_ids=trg.ids.copy())


def brute_rows(
    src_values: np.ndarray,
    trg_values: np.ndarray,
    metric: MetricSpec,
    counters: CounterSet | None = None,
) -> np.ndarray:
    """Raw-array core of ``pairwise_brute``, blocked by source rows."""
    if src_values.shape[1] != trg_values.shape[1]:
        raise DimensionMismatchError("dim mismatch")
    n1, n2 = src_values.shape[0], trg_values.shape[0]
    out = np.empty((n1, n2), dtype=np.float64)
    step = max(1, _BLOCK_ELEMS // max(1, n2 * src_values.shape[1]))
    for start in range(0, n1, step):
        stop = min(n1, start + step)
        out[start:stop] = _brute_block(src_values[start:stop], trg_values, metric)
    if counters is not None:
        counters.point_distances += n1 * n2
    return out


def rowwise_lexsort(distances: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Row-wise argsort by (distance, id).

    Stable-sorting by the secondary key first, then by the primary key,
    yields the lexicographic order per row.
    """
    by_id = np.argsort(ids, axis=1, kind="stable")
    d2 = np.take_along_axis(distances, by_id, axis=1)
    by_dist = np.argsort(d2, axis=1, kind="stable")
    return np.take_along_axis(by_id, by_dist, axis=1)
