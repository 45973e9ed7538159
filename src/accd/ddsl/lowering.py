"""Lower a CheckedProgram into an executable pipeline description.

Classification rules:

* iteration + distinct source/target sets  -> iterative_two_set
* iteration + source set == target set     -> iterative_self_set
* no iteration                             -> oneshot_two_set

Two-set pipelines take an integer top-K range; self-set pipelines take a
positive float radius. Anything else is rejected as unsupported rather
than silently guessed at. The plan holds only what a runner reads, so
lowering settles the semantics a runner would otherwise ignore:

* k-means (iterative two-set) assigns each point its one nearest centre,
  so its select count must be 1.
* A fixed iteration count is a cap: k-means still stops early at the
  first iteration in which no assignment changes.
* Status mode (``AccD_Iter(S)``) is k-means-only: it iterates until no
  assignment changes, capped by ``RunConfig.status_iter_cap``, and lowers
  to ``max_iter=None``. A status-mode self-set program is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import UnsupportedProgramError
from ..metrics import METRIC_NAMES
from .ast import ComputeDist, DistSelect, Iter, Program, Update, VarDecl
from .validator import CheckedProgram

PIPELINE_KINDS = ("iterative_two_set", "oneshot_two_set", "iterative_self_set")


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


@dataclass
class _Shape:
    compdists: list[ComputeDist] = field(default_factory=list)
    selects: list[DistSelect] = field(default_factory=list)
    updates: list[Update] = field(default_factory=list)
    iter_node: Iter | None = None


def _collect(program: Program) -> _Shape:
    shape = _Shape()
    for c in program.body:
        if isinstance(c, Iter):
            if shape.iter_node is not None:
                raise UnsupportedProgramError("multiple iteration blocks are not supported")
            shape.iter_node = c
            for sub in c.body:
                _bucket(shape, sub)
        else:
            _bucket(shape, c)
    return shape


def _bucket(shape: _Shape, c) -> None:
    if isinstance(c, ComputeDist):
        shape.compdists.append(c)
    elif isinstance(c, DistSelect):
        shape.selects.append(c)
    elif isinstance(c, Update):
        shape.updates.append(c)


def _select_value(cp: CheckedProgram, sel: DistSelect) -> float | int:
    if sel.rng.value is not None:
        return sel.rng.value
    decl = cp.symbols[sel.rng.name]
    assert isinstance(decl, VarDecl) and decl.init is not None
    return decl.init


def lower(cp: CheckedProgram) -> ExecutionPlan:
    shape = _collect(cp.program)
    if len(shape.compdists) != 1:
        raise UnsupportedProgramError(
            f"expected exactly one AccD_Comp_Dist, found {len(shape.compdists)}"
        )
    if len(shape.selects) != 1:
        raise UnsupportedProgramError(
            f"expected exactly one AccD_Dist_Select, found {len(shape.selects)}"
        )
    comp = shape.compdists[0]
    sel = shape.selects[0]
    iter_node = shape.iter_node

    self_set = comp.p1 == comp.p2
    if iter_node is None:
        kind = "oneshot_two_set"
        if shape.updates:
            raise UnsupportedProgramError("AccD_Update outside an iteration block")
    elif self_set:
        kind = "iterative_self_set"
    else:
        kind = "iterative_two_set"

    value = _select_value(cp, sel)
    if kind == "iterative_self_set" and not isinstance(value, float):
        raise UnsupportedProgramError(
            "self-set iteration requires a float radius range"
        )
    if kind != "iterative_self_set" and isinstance(value, float):
        raise UnsupportedProgramError(f"{kind} requires an integer top-K range")
    if kind == "iterative_two_set" and value != 1:
        raise UnsupportedProgramError(
            f"iterative two-set select count is {value}: k-means assigns each "
            "point its nearest centre, a count of 1"
        )
    if sel.scope != "smallest":
        raise UnsupportedProgramError(
            'only scope "smallest" is executable; "largest" is selection-only'
        )

    if iter_node is not None and not shape.updates:
        raise UnsupportedProgramError("iterative pipelines require an AccD_Update")
    updated = {u.args[0] for u in shape.updates}
    if kind == "iterative_two_set" and updated != {comp.p2}:
        raise UnsupportedProgramError(
            "two-set iteration must update the target set"
        )
    if kind == "iterative_self_set":
        if updated != {comp.p1}:
            raise UnsupportedProgramError("self-set iteration must update its own set")
        if iter_node.is_status_mode:
            raise UnsupportedProgramError(
                "self-set iteration takes a fixed step count; status exit is k-means-only"
            )

    n1, d1 = cp.set_shape(comp.p1)
    n2, _ = cp.set_shape(comp.p2)
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
