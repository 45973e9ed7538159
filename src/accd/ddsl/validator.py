"""Semantic checks over a parsed Program.

Validation is pure: the same Program always yields the same diagnostics in
the same order (a single source-order pass). A status variable named in an
``AccD_Iter`` header is implicitly declared by that header; everything
else must resolve to an earlier explicit declaration. A program without
errors becomes a ``CheckedProgram``: the program, its symbol table (each
name's declaration, the implicit status variables among them) and each
set's resolved (size, dim). ``lowering.lower`` reads nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import Diagnostic, Span
from ..metrics import METRIC_NAMES
from .ast import (
    ComputeDist,
    DistSelect,
    Iter,
    Program,
    SetDecl,
    SizeRef,
    Update,
    VarDecl,
)

_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1
_FLOAT_MAX = {t: float(np.finfo(t).max) for t in ("float32", "float64")}


def held_value(decl: VarDecl):
    """The value a variable holds: a ``float`` variable the float32
    nearest its literal (inf past float32's range, which ``check_literal``
    reports), any other its literal."""
    if decl.dtype != "float32":
        return decl.init
    with np.errstate(over="ignore"):
        return float(np.float32(decl.init))


@dataclass
class CheckedProgram:
    program: Program
    symbols: dict[str, VarDecl | SetDecl]
    shapes: dict[str, tuple[int, int]]  # set name -> (size, dim)


class _Checker:
    def __init__(self, program: Program):
        self.program = program
        self.diags: list[Diagnostic] = []
        self.symbols: dict[str, VarDecl | SetDecl] = {}
        # set name -> (size, dim), None where a reported error left it unresolved
        self.shapes: dict[str, tuple[int | None, int | None]] = {}

    def error(self, message: str, span: Span) -> None:
        self.diags.append(Diagnostic("error", message, span))

    # -- declarations ---------------------------------------------------

    def check_literal(self, decl: VarDecl) -> None:
        v = decl.init
        if v is None:
            return
        if decl.dtype == "int32":
            if isinstance(v, float):
                self.error(f"non-integer literal for int variable '{decl.name}'", decl.span)
            elif not (_INT32_MIN <= v <= _INT32_MAX):
                self.error(f"literal {v} out of int32 range", decl.span)
        elif abs(v) > _FLOAT_MAX[decl.dtype]:
            self.error(f"literal {v} overflows {decl.dtype}", decl.span)

    def resolve_szref(self, ref: SizeRef, what: str) -> int | None:
        if ref.value is not None:
            return ref.value
        decl = self.symbols.get(ref.name)
        if decl is None:
            self.error(f"undefined identifier '{ref.name}' used as {what}", ref.span)
            return None
        if not isinstance(decl, VarDecl) or decl.dtype != "int32":
            self.error(f"'{ref.name}' is not an int variable (used as {what})", ref.span)
            return None
        if decl.init is None:
            self.error(f"size variable '{ref.name}' has no initial value", ref.span)
            return None
        if isinstance(decl.init, float) and math.isinf(decl.init):
            return None  # check_literal reported it, and int() would overflow
        return int(decl.init)

    def check_decls(self) -> None:
        for decl in self.program.decls:
            if decl.name in self.symbols:
                self.error(f"duplicate declaration of '{decl.name}'", decl.span)
                continue
            if isinstance(decl, VarDecl):
                self.check_literal(decl)
                self.symbols[decl.name] = decl
                continue
            # the set's own name is not yet declared while its shape resolves
            what = ("size", "dim")
            shape = tuple(
                self.resolve_szref(ref, f"{w} of '{decl.name}'")
                for w, ref in zip(what, (decl.size, decl.dim))
            )
            self.symbols[decl.name] = decl
            self.shapes[decl.name] = shape
            for w, v in zip(what, shape):
                if v is not None and v < 1:
                    self.error(f"set '{decl.name}' must have {w} >= 1", decl.span)

    # -- constructs -----------------------------------------------------

    def lookup_set(self, name: str, what: str, span: Span):
        """The (size, dim) of set ``name``, or None if it is not a set."""
        decl = self.symbols.get(name)
        if decl is None:
            self.error(f"undefined identifier '{name}' used as {what}", span)
            return None
        if not isinstance(decl, SetDecl):
            self.error(f"'{name}' is not a set (used as {what})", span)
            return None
        return self.shapes[name]

    def expect_shape(self, name: str, shape, rows, cols, what: str, span: Span) -> None:
        if shape is None:
            return
        for got, want, unit in zip(shape, (rows, cols), ("rows", "columns")):
            if want is not None and got is not None and got != want:
                self.error(f"{what} '{name}' has {got} {unit}, expected {want}", span)

    def check_compdist(self, c: ComputeDist) -> None:
        (n1, d1), (n2, d2) = [
            self.lookup_set(name, what, c.span) or (None, None)
            for name, what in ((c.p1, "source set"), (c.p2, "target set"))
        ]
        if d1 is not None and d2 is not None and d1 != d2:
            self.error(f"source dim {d1} does not match target dim {d2}", c.span)
        dim = self.resolve_szref(c.dim, "dimensionality")
        if dim is not None and d1 is not None and dim != d1:
            self.error(f"dim argument {dim} does not match data dim {d1}", c.dim.span)
        for name, what in ((c.dist_mat, "distance matrix"), (c.id_mat, "id matrix")):
            self.expect_shape(name, self.lookup_set(name, what, c.span), n1, n2, what, c.span)
        if c.metric not in METRIC_NAMES:
            names = ", ".join(sorted(METRIC_NAMES))
            self.error(f"unknown metric {c.metric!r} (expected one of: {names})", c.span)
            return
        weighted = METRIC_NAMES[c.metric][1]
        if weighted:
            if c.weights.name is None:
                self.error("weighted metric requires a declared weight set", c.span)
            else:
                name, span = c.weights.name, c.weights.span
                shape = self.lookup_set(name, "weight matrix", span)
                self.expect_shape(name, shape, 1, d1, "weight matrix", span)
        elif c.weights.name is not None or c.weights.value != 0:
            self.error("unweighted metric takes 0 as the weight argument", c.span)

    def check_select(self, s: DistSelect, prior_compdists: list[ComputeDist]) -> None:
        feeds = [c for c in prior_compdists if (c.dist_mat, c.id_mat) == (s.dist_mat, s.id_mat)]
        feeding = feeds[-1] if feeds else None
        if feeding is None:
            self.error("selection inputs do not match any prior AccD_Comp_Dist outputs", s.span)
        if s.scope not in ("smallest", "largest"):
            self.error(f'unknown scope "{s.scope}" (expected smallest or largest)', s.span)
        out = self.lookup_set(s.out, "selection output", s.span)
        n1 = n2 = None
        if feeding is not None:
            n1 = self.shapes.get(feeding.p1, (None, None))[0]
            n2 = self.shapes.get(feeding.p2, (None, None))[0]

        # Integer range = a top-K count, float variable = a radius.
        if s.rng.name is not None:
            decl = self.symbols.get(s.rng.name)
            if decl is None:
                self.error(f"undefined identifier '{s.rng.name}' used as range", s.rng.span)
                return
            if not isinstance(decl, VarDecl):
                self.error(f"range '{s.rng.name}' must be a variable", s.rng.span)
                return
            if decl.init is None:
                self.error(f"range variable '{s.rng.name}' has no initial value", s.rng.span)
                return
            value, held = decl.init, held_value(decl)
        else:
            value = held = s.rng.value
        if isinstance(value, float):
            if value <= 0:
                self.error(f"radius must be positive, got {value}", s.rng.span)
            elif held == 0:
                self.error(f"radius {value} is 0 as a float; declare it double", s.rng.span)
            self.expect_shape(s.out, out, n1, None, "selection output", s.span)
            return
        k = int(value)
        if k < 1:
            self.error(f"top-K count must be >= 1, got {k}", s.rng.span)
        elif n2 is not None and k > n2:
            self.error(f"top-K count {k} exceeds target set size {n2}", s.rng.span)
        self.expect_shape(s.out, out, n1, k, "selection output", s.span)

    def check_update(self, u: Update) -> None:
        target = self.symbols.get(u.args[0])
        if target is None:
            self.error(f"undefined identifier '{u.args[0]}' used as update target", u.span)
        elif not isinstance(target, SetDecl):
            self.error(f"update target '{u.args[0]}' is not a set", u.span)
        for name in u.args[1:]:
            if name not in self.symbols:
                self.error(f"undefined identifier '{name}' in update", u.span)

    def check_iter(self, it: Iter) -> None:
        if it.condition.name is not None:
            name = it.condition.name
            if name in self.symbols and not getattr(self.symbols[name], "implicit", False):
                self.error(
                    f"iteration status variable '{name}' collides with an explicit declaration",
                    it.span,
                )
            else:
                self.symbols[name] = VarDecl(name=name, dtype="int32", init=0, implicit=True)
        elif it.condition.value is not None and it.condition.value < 1:
            self.error("iteration count must be >= 1", it.span)
        for a in it.status_assigns:
            if a.name not in self.symbols:
                self.error(f"undefined identifier '{a.name}' in status assignment", a.span)
        if not it.body:
            self.error("iteration block contains no constructs", it.span)
        self.check_body(it.body)

    def check_body(self, constructs) -> None:
        """Check the top level or an iteration block; a select reads the
        distances of an earlier AccD_Comp_Dist of the same block."""
        compdists: list[ComputeDist] = []
        for c in constructs:
            if isinstance(c, ComputeDist):
                self.check_compdist(c)
                compdists.append(c)
            elif isinstance(c, DistSelect):
                self.check_select(c, compdists)
            elif isinstance(c, Update):
                self.check_update(c)
            elif isinstance(c, Iter):
                self.check_iter(c)

    def run(self) -> tuple[CheckedProgram | None, list[Diagnostic]]:
        self.check_decls()
        self.check_body(self.program.body)
        if any(d.severity == "error" for d in self.diags):
            return None, self.diags
        return CheckedProgram(self.program, dict(self.symbols), dict(self.shapes)), self.diags


def validate(program: Program) -> tuple[CheckedProgram | None, list[Diagnostic]]:
    """Check a Program; returns (CheckedProgram or None, diagnostics)."""
    return _Checker(program).run()
