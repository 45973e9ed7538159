"""DDSL abstract syntax.

Node equality is structural and ignores spans, so a program re-parsed
from its pretty-printed form compares equal to the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import Span

_NO_SPAN = Span(0, 0)

# DDSL dtype keyword -> canonical name
DTYPE_MAP = {"int": "int32", "float": "float32", "double": "float64"}
DTYPE_KEYWORD = {v: k for k, v in DTYPE_MAP.items()}


@dataclass(frozen=True)
class SizeRef:
    """Either an identifier naming an int variable or an integer literal."""

    name: str | None = None
    value: int | None = None
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)

    def __post_init__(self):
        if (self.name is None) == (self.value is None):
            raise ValueError("SizeRef must be exactly one of name or value")

    def render(self) -> str:
        return self.name if self.name is not None else str(self.value)


@dataclass(frozen=True)
class VarDecl:
    name: str
    dtype: str  # int32 | float32 | float64
    init: int | float | None = None
    implicit: bool = field(default=False, compare=False)  # status vars from Iter headers
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class SetDecl:
    name: str
    dtype: str
    size: SizeRef
    dim: SizeRef
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class ComputeDist:
    p1: str
    p2: str
    dist_mat: str
    id_mat: str
    dim: SizeRef
    metric: str  # verbatim quoted string
    weights: SizeRef  # integer 0 when unweighted, else a weight-set name
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class DistSelect:
    dist_mat: str
    id_mat: str
    rng: SizeRef  # K (count) or a declared radius variable
    scope: str  # "smallest" | "largest"
    out: str
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Update:
    args: tuple[str, ...]  # first = updated set, rest = inputs (+ status var last)
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class StatusAssign:
    """`name = true|false;` inside an iteration block."""

    name: str
    value: bool
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Iter:
    condition: SizeRef  # identifier = status-exit variable, integer = max iterations
    status_assigns: tuple[StatusAssign, ...]
    body: tuple[ComputeDist | DistSelect | Update, ...]
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)

    @property
    def is_status_mode(self) -> bool:
        return self.condition.name is not None


Construct = ComputeDist | DistSelect | Update | Iter
Decl = VarDecl | SetDecl

# Call head -> node class and its argument kinds in field order, for the
# parser and the printer: "ident" an identifier, "size" a SizeRef,
# "metric" or "scope" a quoted string, "idents" two or more identifiers.
_CALLS = {
    "AccD_Comp_Dist": (
        ComputeDist,
        ("ident", "ident", "ident", "ident", "size", "metric", "size"),
    ),
    "AccD_Dist_Select": (DistSelect, ("ident", "ident", "size", "scope", "ident")),
    "AccD_Update": (Update, ("idents",)),
}


@dataclass(frozen=True)
class Program:
    decls: tuple[Decl, ...]
    body: tuple[Construct, ...]
