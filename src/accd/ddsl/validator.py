"""Semantic checks over a parsed Program.

Validation is pure: the same Program always yields the same diagnostics in
the same order (a single source-order pass). A status variable named in an
``AccD_Iter`` header is implicitly declared by that header; everything
else must resolve to an earlier explicit declaration.
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


@dataclass
class CheckedProgram:
    program: Program
    symbols: dict[str, VarDecl | SetDecl]
    resolved_sizes: dict[str, int]  # SetDecl name -> (size, dim) flattened as name.size / name.dim

    def set_shape(self, name: str) -> tuple[int, int]:
        return self.resolved_sizes[f"{name}.size"], self.resolved_sizes[f"{name}.dim"]


class _Checker:
    def __init__(self, program: Program):
        self.program = program
        self.diags: list[Diagnostic] = []
        self.symbols: dict[str, VarDecl | SetDecl] = {}
        self.resolved: dict[str, int] = {}

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
            size = self.resolve_szref(decl.size, f"size of '{decl.name}'")
            dim = self.resolve_szref(decl.dim, f"dim of '{decl.name}'")
            self.symbols[decl.name] = decl
            if size is not None:
                if size < 1:
                    self.error(f"set '{decl.name}' must have size >= 1", decl.span)
                self.resolved[f"{decl.name}.size"] = size
            if dim is not None:
                if dim < 1:
                    self.error(f"set '{decl.name}' must have dim >= 1", decl.span)
                self.resolved[f"{decl.name}.dim"] = dim

    # -- constructs -----------------------------------------------------

    def lookup_set(self, name: str, what: str, span: Span) -> SetDecl | None:
        decl = self.symbols.get(name)
        if decl is None:
            self.error(f"undefined identifier '{name}' used as {what}", span)
            return None
        if not isinstance(decl, SetDecl):
            self.error(f"'{name}' is not a set (used as {what})", span)
            return None
        return decl

    def shape_of(self, decl: SetDecl) -> tuple[int | None, int | None]:
        return (
            self.resolved.get(f"{decl.name}.size"),
            self.resolved.get(f"{decl.name}.dim"),
        )

    def expect_shape(self, decl: SetDecl, rows, cols, what: str, span: Span) -> None:
        size, dim = self.shape_of(decl)
        if rows is not None and size is not None and size != rows:
            self.error(
                f"{what} '{decl.name}' has {size} rows, expected {rows}", span
            )
        if cols is not None and dim is not None and dim != cols:
            self.error(
                f"{what} '{decl.name}' has {dim} columns, expected {cols}", span
            )

    def check_compdist(self, c: ComputeDist) -> None:
        p1 = self.lookup_set(c.p1, "source set", c.span)
        p2 = self.lookup_set(c.p2, "target set", c.span)
        n1 = self.shape_of(p1)[0] if p1 else None
        n2 = self.shape_of(p2)[0] if p2 else None
        d1 = self.shape_of(p1)[1] if p1 else None
        d2 = self.shape_of(p2)[1] if p2 else None
        if d1 is not None and d2 is not None and d1 != d2:
            self.error(
                f"source dim {d1} does not match target dim {d2}", c.span
            )
        dim = self.resolve_szref(c.dim, "dimensionality")
        if dim is not None and d1 is not None and dim != d1:
            self.error(f"dim argument {dim} does not match data dim {d1}", c.dim.span)
        dmat = self.lookup_set(c.dist_mat, "distance matrix", c.span)
        if dmat is not None:
            self.expect_shape(dmat, n1, n2, "distance matrix", c.span)
        imat = self.lookup_set(c.id_mat, "id matrix", c.span)
        if imat is not None:
            self.expect_shape(imat, n1, n2, "id matrix", c.span)
        if c.metric not in METRIC_NAMES:
            names = ", ".join(sorted(METRIC_NAMES))
            self.error(f"unknown metric {c.metric!r} (expected one of: {names})", c.span)
            return
        weighted = METRIC_NAMES[c.metric][1]
        if weighted:
            if c.weights.name is None:
                self.error("weighted metric requires a declared weight set", c.span)
            else:
                wset = self.lookup_set(c.weights.name, "weight matrix", c.weights.span)
                if wset is not None:
                    self.expect_shape(wset, 1, d1, "weight matrix", c.weights.span)
        elif c.weights.name is not None or c.weights.value != 0:
            self.error("unweighted metric takes 0 as the weight argument", c.span)

    def check_select(self, s: DistSelect, prior_compdists: list[ComputeDist]) -> None:
        feeding = None
        for c in prior_compdists:
            if c.dist_mat == s.dist_mat and c.id_mat == s.id_mat:
                feeding = c
        if feeding is None:
            self.error(
                "selection inputs do not match any prior AccD_Comp_Dist outputs",
                s.span,
            )
        if s.scope not in ("smallest", "largest"):
            self.error(f'unknown scope "{s.scope}" (expected smallest or largest)', s.span)
        out = self.lookup_set(s.out, "selection output", s.span)

        n1 = n2 = None
        if feeding is not None:
            p1 = self.symbols.get(feeding.p1)
            p2 = self.symbols.get(feeding.p2)
            if isinstance(p1, SetDecl):
                n1 = self.shape_of(p1)[0]
            if isinstance(p2, SetDecl):
                n2 = self.shape_of(p2)[0]

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
            value = decl.init
        else:
            value = s.rng.value
        if isinstance(value, float):
            if value <= 0:
                self.error(f"radius must be positive, got {value}", s.rng.span)
            if out is not None:
                self.expect_shape(out, n1, None, "selection output", s.span)
            return
        k = int(value)
        if k < 1:
            self.error(f"top-K count must be >= 1, got {k}", s.rng.span)
        elif n2 is not None and k > n2:
            self.error(f"top-K count {k} exceeds target set size {n2}", s.rng.span)
        if out is not None:
            self.expect_shape(out, n1, k, "selection output", s.span)

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
        compdists: list[ComputeDist] = []
        has_construct = False
        for sub in it.body:
            has_construct = True
            if isinstance(sub, ComputeDist):
                self.check_compdist(sub)
                compdists.append(sub)
            elif isinstance(sub, DistSelect):
                self.check_select(sub, compdists)
            elif isinstance(sub, Update):
                self.check_update(sub)
        if not has_construct:
            self.error("iteration block contains no constructs", it.span)

    def run(self) -> tuple[CheckedProgram | None, list[Diagnostic]]:
        self.check_decls()
        compdists: list[ComputeDist] = []
        for c in self.program.body:
            if isinstance(c, ComputeDist):
                self.check_compdist(c)
                compdists.append(c)
            elif isinstance(c, DistSelect):
                self.check_select(c, compdists)
            elif isinstance(c, Update):
                self.check_update(c)
            elif isinstance(c, Iter):
                self.check_iter(c)
        if any(d.severity == "error" for d in self.diags):
            return None, self.diags
        checked = CheckedProgram(
            program=self.program,
            symbols=dict(self.symbols),
            resolved_sizes=dict(self.resolved),
        )
        return checked, self.diags


def validate(program: Program) -> tuple[CheckedProgram | None, list[Diagnostic]]:
    """Check a Program; returns (CheckedProgram or None, diagnostics)."""
    return _Checker(program).run()
