"""Memory layout planning: run-wise row ordering and contiguous
intra-group packing.

Reordering is the one batching rule: ``reorder_inter_group`` sorts the rows
of a boolean reach mask, one row per source point naming the target groups
it must be tiled against (the join's per-point cut, a k-means search, or an
n-body point's row of its group's cut), so that equal rows lie next to each
other, and names each run of equal rows; the pipelines sweep each run as
one batch against the groups its row names, so their target data is
fetched once per run. Packing rewrites a grouped set's point order so
every group is one contiguous slice: a plan is that order, ``point_perm``,
and each group's [start, stop) in it, ``group_slices``, which can express
any order of the groups. Both are semantics-free: the
pipelines read each group's rows as one packed slice in ascending
original-id order, so results do not depend on the layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import SizeMismatchError
from .gti import GroupModel


@dataclass
class LayoutPlan:
    point_perm: np.ndarray  # packed position -> original point id
    group_slices: np.ndarray  # (z, 2): per group id, its packed [start, stop)

    def to_json_dict(self) -> dict:
        return {"group_slices": self.group_slices.tolist()}


def reorder_inter_group(reach: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort the rows of a (rows, groups) boolean mask so equal rows are
    adjacent; returns the row order and the start of each run of equal
    rows in it.

    Each row is packed into a byte key by one flat ``np.packbits`` (along
    an axis it is many times slower), and the keys are sorted by a stable
    ``np.lexsort``, first byte first, so the rows of a run ascend. Runs
    are found on the sorted keys zero-padded to whole ``uint64`` words.
    """
    rows, width = reach.shape
    size = -(-width // 8)
    bits = np.zeros((rows, 8 * size), dtype=bool)
    bits[:, :width] = reach
    packed = np.packbits(bits, bitorder="little").reshape(rows, size)
    del bits
    order = np.lexsort(packed.T[::-1])
    key = np.zeros((rows, 8 * -(-size // 8)), dtype=np.uint8)
    key[:, :size] = packed[order]
    words = key.view(np.uint64)
    new = np.ones(rows, dtype=bool)
    new[1:] = np.any(words[1:] != words[:-1], axis=1)
    return order, np.flatnonzero(new)


def pack_intra_group(ds: Dataset, gm: GroupModel) -> LayoutPlan:
    """Lay the groups' members out contiguously, in group id order, each
    group's in ascending id order: one stable argsort of ``group_of``."""
    if ds.n != gm.n:
        raise SizeMismatchError(f"group model covers {gm.n} points, dataset has {ds.n}")
    stops = np.cumsum(gm.sizes)
    return LayoutPlan(
        point_perm=np.argsort(gm.group_of, kind="stable"),
        group_slices=np.column_stack((stops - gm.sizes, stops)),
    )
