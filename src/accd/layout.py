"""Memory layout planning: candidate-driven group ordering and contiguous
intra-group packing into banks.

Reordering puts source groups with identical candidate lists next to each
other so their target data is fetched once per run of groups; packing
rewrites the point order so every group is one contiguous slice, never
split across a bank boundary. Both are semantics-free: the pipelines read
each group's rows as one packed slice in ascending original-id order, so
results do not depend on the layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import CapacityError, SizeMismatchError
from .gti import CandidateMatrix, GroupModel

DEFAULT_BANKS = 4


@dataclass
class LayoutPlan:
    group_order: np.ndarray  # processing order of source-group ids
    point_perm: np.ndarray  # packed position -> original point id
    inverse_perm: np.ndarray  # original point id -> packed position
    bank_of_group: np.ndarray  # group id -> bank index
    n_banks: int
    group_slices: dict[int, tuple[int, int]]  # group id -> packed [start, stop)

    def to_json_dict(self) -> dict:
        return {
            "group_order": self.group_order.tolist(),
            "point_perm": self.point_perm.tolist(),
            "inverse_perm": self.inverse_perm.tolist(),
            "bank_of_group": self.bank_of_group.tolist(),
            "n_banks": self.n_banks,
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
    ds: Dataset,
    gm: GroupModel,
    n_banks: int = DEFAULT_BANKS,
    group_order: np.ndarray | None = None,
    bank_capacity: int | None = None,
) -> LayoutPlan:
    """Build the packed point order and the bank assignment.

    Groups are laid out contiguously following ``group_order``; banks are
    contiguous chunks of that order. Each bank is filled greedily up to an
    adaptive share (points left / banks left), overshooting by less than
    one group, so max bank load stays within total/n_banks + the largest
    group — at most 2x optimal.
    """
    if n_banks < 1:
        raise CapacityError("need at least one bank")
    z = gm.z
    if group_order is None:
        group_order = np.arange(z, dtype=np.int64)
    if sorted(group_order.tolist()) != list(range(z)):
        raise SizeMismatchError("group_order must be a permutation of group ids")
    sizes = gm.sizes
    total = int(sizes.sum())
    if ds.n != total:
        raise SizeMismatchError(f"group model covers {total} points, dataset has {ds.n}")
    if bank_capacity is not None:
        too_big = np.flatnonzero(sizes > bank_capacity)
        if too_big.size:
            raise CapacityError(
                f"group {int(too_big[0])} ({int(sizes[too_big[0]])} points) "
                f"exceeds bank capacity {bank_capacity}"
            )

    point_perm = np.empty(total, dtype=np.int64)
    bank_of_group = np.zeros(z, dtype=np.int64)
    group_slices: dict[int, tuple[int, int]] = {}
    cursor = 0
    bank = 0
    load = 0
    remaining = total
    share = remaining / n_banks
    for g in group_order:
        g = int(g)
        members = gm.membership[g]
        if (
            bank_capacity is not None
            and load + members.size > bank_capacity
            and load > 0
            and bank < n_banks - 1
        ):
            bank += 1
            load = 0
            share = remaining / (n_banks - bank)
        if bank_capacity is not None and load + members.size > bank_capacity:
            raise CapacityError(f"bank {bank} overflows at group {g}")
        bank_of_group[g] = bank
        load += members.size
        remaining -= members.size
        point_perm[cursor : cursor + members.size] = members
        group_slices[g] = (cursor, cursor + members.size)
        cursor += members.size
        # Close the bank once it reaches its adaptive share; overshoot is
        # bounded by one group, which yields the 2x balance guarantee.
        if load >= share and bank < n_banks - 1 and remaining > 0:
            bank += 1
            load = 0
            share = remaining / (n_banks - bank)
    inverse = np.empty(total, dtype=np.int64)
    inverse[point_perm] = np.arange(total)
    return LayoutPlan(
        group_order=np.asarray(group_order, dtype=np.int64),
        point_perm=point_perm,
        inverse_perm=inverse,
        bank_of_group=bank_of_group,
        n_banks=n_banks,
        group_slices=group_slices,
    )
