"""Memory layout planning: run-wise row ordering and contiguous
intra-group packing.

Reordering is the one batching rule: ``reorder_inter_group`` sorts the rows
of a boolean reach mask, one row per source point naming the target groups
it must be tiled against (the join's per-point cut, a k-means search, or an
n-body point's row of its group's cut), so that equal rows lie next to each
other, and names each run of equal rows; the pipelines sweep each run as
one batch against the groups its row names, so their target data is
fetched once per run. Packing rewrites a grouped set's point order so
every group is one contiguous slice. Both are semantics-free: the
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
    group_order: np.ndarray  # the order the groups are packed in
    point_perm: np.ndarray  # packed position -> original point id
    inverse_perm: np.ndarray  # original point id -> packed position
    group_slices: dict[int, tuple[int, int]]  # group id -> packed [start, stop)

    def to_json_dict(self) -> dict:
        return {
            "group_order": self.group_order.tolist(),
            "point_perm": self.point_perm.tolist(),
            "inverse_perm": self.inverse_perm.tolist(),
            "group_slices": {str(g): list(s) for g, s in self.group_slices.items()},
        }


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
    """Lay the groups' members out contiguously, in group id order."""
    total = int(gm.sizes.sum())
    if ds.n != total:
        raise SizeMismatchError(f"group model covers {total} points, dataset has {ds.n}")

    point_perm = np.concatenate(gm.membership).astype(np.int64, copy=False)
    stops = np.cumsum(gm.sizes)
    inverse = np.empty(total, dtype=np.int64)
    inverse[point_perm] = np.arange(total)
    return LayoutPlan(
        group_order=np.arange(gm.z, dtype=np.int64),
        point_perm=point_perm,
        inverse_perm=inverse,
        group_slices=dict(enumerate(zip((stops - gm.sizes).tolist(), stops.tolist()))),
    )
