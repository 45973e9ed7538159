"""Memory layout planning: candidate-driven group ordering and contiguous
intra-group packing.

Reordering puts source groups with identical candidate lists next to each
other so their target data is fetched once per run of groups; packing
rewrites the point order so every group is one contiguous slice. Both are
semantics-free: the pipelines read each group's rows as one packed slice
in ascending original-id order, so results do not depend on the layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import SizeMismatchError
from .gti import CandidateMatrix, GroupModel


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


def reorder_inter_group(cm: CandidateMatrix) -> np.ndarray:
    """Sort source groups by (candidate-list key, group id).

    The key is the sorted target-id tuple itself, so groups survive as
    adjacent exactly when their candidate sets are identical.
    """
    z = len(cm.targets)
    return np.array(sorted(range(z), key=lambda g: (cm.key(g), g)), dtype=np.int64)


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
