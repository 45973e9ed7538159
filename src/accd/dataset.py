"""Dataset storage, CSV loading, the brute-force distance oracle, and the
row-wise (distance, id) sort.

All values are held as float64 regardless of the declared DDSL dtype,
and a point's id is its row index.
``brute_rows`` is the reference implementation every optimized path is
checked against: it evaluates each entry by direct elementwise
differencing, with per-entry results bitwise equal to ``distance``.
"""

from __future__ import annotations

import csv
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, FormatError
from .metrics import MetricSpec, difference_distance

# Rows-per-block budget so a block of the broadcast difference tensor
# stays around 32 MB of float64.
_BLOCK_ELEMS = 4_000_000


@dataclass
class Dataset:
    values: np.ndarray  # n x d float64, C-contiguous; point id = row

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DimensionMismatchError("dataset values must be a 2-D matrix")
        if not np.all(np.isfinite(self.values)):
            row, col = np.argwhere(~np.isfinite(self.values))[0]
            raise FormatError("non-finite value in dataset", int(row) + 1, int(col) + 1)

    @classmethod
    def from_values(cls, values) -> "Dataset":
        return cls(values=values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass
class TopKResult:
    """Per source point, its k nearest (target id, distance) pairs, each
    row sorted by (distance, id) ascending; ids within a row are distinct.
    """

    ids: np.ndarray  # n x k
    distances: np.ndarray  # n x k


def id_dtype(n: int) -> type:
    """The dtype of point ids below ``n``: int32 when they fit, else int64."""
    return np.int32 if n < 2**31 else np.int64


@dataclass(frozen=True, eq=False)
class NeighborLists(Sequence):
    """Per point, its neighbor ids in ascending order, as CSR: point i's
    are ``ids[offsets[i]:offsets[i + 1]]``. A read-only sequence of those
    slices; each item is a view, made only when asked for."""

    offsets: np.ndarray  # n + 1, rising from 0 to ids.size
    ids: np.ndarray  # ``id_dtype(n)``

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, i) -> np.ndarray:
        i = range(len(self))[operator.index(i)]
        return self.ids[self.offsets[i] : self.offsets[i + 1]]

    def __iter__(self):
        edges = self.offsets.tolist()
        return (self.ids[a:b] for a, b in zip(edges, edges[1:]))


def _parse_cell(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def load_csv(path) -> Dataset:
    """Load a comma-separated point matrix.

    A leading UTF-8 byte order mark is skipped. An optional single header
    row is auto-detected (first row with any non-numeric cell). Point id = data row index. Raises ``FormatError``
    with 1-based row/col on any non-numeric cell, non-finite value, or
    ragged row; IO problems propagate as ``OSError``.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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
    return Dataset(values=out)


def brute_rows(
    src_values: np.ndarray,
    trg_values: np.ndarray,
    metric: MetricSpec,
) -> np.ndarray:
    """Exact n1 x n2 distance matrix by direct differencing, blocked by
    source rows."""
    if src_values.shape[1] != trg_values.shape[1]:
        raise DimensionMismatchError("dim mismatch")
    n1, n2 = src_values.shape[0], trg_values.shape[0]
    out = np.empty((n1, n2), dtype=np.float64)
    step = max(1, _BLOCK_ELEMS // max(1, n2 * src_values.shape[1]))
    for start in range(0, n1, step):
        block = src_values[start : start + step, None, :]
        out[start : start + step] = difference_distance(block - trg_values[None, :, :], metric)
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
