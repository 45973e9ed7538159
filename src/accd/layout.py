"""Memory layout planning: candidate-driven group ordering and contiguous
intra-group packing.

Reordering is the one batching rule: ``reorder_inter_group`` sorts the rows
of a boolean reach mask, one row per source group (the join's group cut) or
per point (a k-means search), so that equal rows lie next to each other,
and names each run of equal rows; the pipelines sweep each run as one
batch against the groups its row names, so their target data is fetched
once per run. Packing rewrites the point order so every group is one
contiguous slice. Both are semantics-free: the pipelines read each group's
rows as one packed slice in ascending original-id order, so results do not
depend on the layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import SizeMismatchError
from .gti import GroupModel


@dataclass
class LayoutPlan:
    group_order: np.ndarray  # processing order of source-group ids
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
    ``np.lexsort``, first byte first, so the rows of a run ascend.
    """
    rows, width = reach.shape[0], -(-reach.shape[1] // 8)
    bits = np.zeros((rows, 8 * width), dtype=bool)
    bits[:, : reach.shape[1]] = reach
    key = np.packbits(bits, bitorder="little").reshape(rows, width)
    del bits
    order = np.lexsort(key.T[::-1])
    key = key[order]
    return order, np.flatnonzero(np.concatenate(([True], np.any(key[1:] != key[:-1], axis=1))))


def pack_intra_group(
    ds: Dataset, gm: GroupModel, group_order: np.ndarray | None = None
) -> LayoutPlan:
    """Lay the groups' members out contiguously, following ``group_order``
    (default: group id order)."""
    z = gm.z
    if group_order is None:
        group_order = np.arange(z, dtype=np.int64)
    if sorted(group_order.tolist()) != list(range(z)):
        raise SizeMismatchError("group_order must be a permutation of group ids")
    total = int(gm.sizes.sum())
    if ds.n != total:
        raise SizeMismatchError(f"group model covers {total} points, dataset has {ds.n}")

    order = [int(g) for g in group_order]
    point_perm = np.concatenate([gm.membership[g] for g in order]).astype(np.int64, copy=False)
    stops = np.cumsum([gm.membership[g].size for g in order]).tolist()
    group_slices = {g: (stop - gm.membership[g].size, stop) for g, stop in zip(order, stops)}
    inverse = np.empty(total, dtype=np.int64)
    inverse[point_perm] = np.arange(total)
    return LayoutPlan(
        group_order=np.asarray(group_order, dtype=np.int64),
        point_perm=point_perm,
        inverse_perm=inverse,
        group_slices=group_slices,
    )
