"""Lower a CheckedProgram into an executable pipeline description.

Lowering reads only what validation resolved: the checked program's body,
its symbol table (for a range variable's value) and each set's (size,
dim). One pass over the body, an iteration block's calls included, finds
the one AccD_Comp_Dist, the one AccD_Dist_Select and the sets that
AccD_Update writes. Classification rules:

* iteration + distinct source/target sets  -> iterative_two_set
* iteration + source set == target set     -> iterative_self_set
* no iteration                             -> oneshot_two_set

Two-set pipelines take an integer top-K range; self-set pipelines take a
positive float radius, at the precision of its variable: a ``float``
radius lowers to its float32 value, a ``double`` to its literal
(``validator.held_value``). Anything else is rejected as unsupported
rather than silently guessed at. The plan holds only what a runner reads,
so lowering settles the semantics a runner would otherwise ignore:

* k-means (iterative two-set) assigns each point its one nearest centre,
  so its select count must be 1.
* A fixed iteration count is a cap: k-means still stops early at the
  first iteration in which no assignment changes.
* Status mode (``AccD_Iter(S)``) is k-means-only: it iterates until no
  assignment changes, capped by ``RunConfig.status_iter_cap``, and lowers
  to ``max_iter=None``. A status-mode self-set program is rejected.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from ..errors import UnsupportedProgramError
from ..metrics import METRIC_NAMES
from .ast import ComputeDist, DistSelect, Iter, Update
from .validator import CheckedProgram, held_value


@dataclass(frozen=True)
class SelectSpec:
    value: float  # top-K count (two-set) or radius (self-set); scope "smallest"


@dataclass(frozen=True)
class ExecutionPlan:
    pipeline_kind: str
    source_size: int
    target_size: int
    dim: int
    metric_name: str
    weight_set: str | None
    select: SelectSpec
    max_iter: int | None  # None: one-shot, or k-means until no assignment changes

    def to_json_dict(self) -> dict:
        return {
            "pipeline_kind": self.pipeline_kind,
            "source_size": self.source_size,
            "target_size": self.target_size,
            "dim": self.dim,
            "metric": self.metric_name,
            "weight_set": self.weight_set,
            "select": self.select.value,
            "max_iter": self.max_iter,
        }


def _one(calls: list, cls: type, head: str):
    found = [c for c in calls if isinstance(c, cls)]
    if len(found) != 1:
        raise UnsupportedProgramError(f"expected exactly one {head}, found {len(found)}")
    return found[0]


def lower(cp: CheckedProgram) -> ExecutionPlan:
    calls: list[ComputeDist | DistSelect | Update] = []
    iter_node = None
    for c in cp.program.body:
        if isinstance(c, Iter):
            if iter_node is not None:
                raise UnsupportedProgramError("multiple iteration blocks are not supported")
            iter_node = c
            calls += c.body
        else:
            calls.append(c)
    comp = _one(calls, ComputeDist, "AccD_Comp_Dist")
    sel = _one(calls, DistSelect, "AccD_Dist_Select")
    updated = {c.args[0] for c in calls if isinstance(c, Update)}

    if iter_node is None:
        kind = "oneshot_two_set"
        if updated:
            raise UnsupportedProgramError("AccD_Update outside an iteration block")
    elif comp.p1 == comp.p2:
        kind = "iterative_self_set"
    else:
        kind = "iterative_two_set"

    # validation resolved a named range to a variable with a value
    value = sel.rng.value if sel.rng.name is None else held_value(cp.symbols[sel.rng.name])
    if kind == "iterative_self_set" and not isinstance(value, float):
        raise UnsupportedProgramError("self-set iteration requires a float radius range")
    if kind != "iterative_self_set" and isinstance(value, float):
        raise UnsupportedProgramError(f"{kind} requires an integer top-K range")
    if kind == "iterative_two_set" and value != 1:
        raise UnsupportedProgramError(
            f"iterative two-set select count is {value}: k-means assigns each "
            "point its nearest centre, a count of 1"
        )
    if value > sys.float_info.max:  # the plan holds the count as a float
        raise UnsupportedProgramError("top-K count is larger than the largest float64")
    if sel.scope != "smallest":
        raise UnsupportedProgramError(
            'only scope "smallest" is executable; "largest" is selection-only'
        )

    if iter_node is not None and not updated:
        raise UnsupportedProgramError("iterative pipelines require an AccD_Update")
    if kind == "iterative_two_set" and updated != {comp.p2}:
        raise UnsupportedProgramError("two-set iteration must update the target set")
    if kind == "iterative_self_set":
        if updated != {comp.p1}:
            raise UnsupportedProgramError("self-set iteration must update its own set")
        if iter_node.is_status_mode:
            raise UnsupportedProgramError(
                "self-set iteration takes a fixed step count; status exit is k-means-only"
            )

    (n1, d1), (n2, _) = cp.shapes[comp.p1], cp.shapes[comp.p2]
    weighted = METRIC_NAMES[comp.metric][1]
    fixed = iter_node is not None and not iter_node.is_status_mode
    return ExecutionPlan(
        pipeline_kind=kind,
        source_size=n1,
        target_size=n2,
        dim=d1,
        metric_name=comp.metric,
        weight_set=comp.weights.name if weighted else None,
        select=SelectSpec(value=float(value)),
        max_iter=iter_node.condition.value if fixed else None,
    )
