"""Canonical DDSL rendering. parse(pretty_print(p)) == p structurally."""

from __future__ import annotations

import math
from dataclasses import fields

from .ast import (
    _CALLS,
    Iter,
    Program,
    SetDecl,
    VarDecl,
    DTYPE_KEYWORD,
)

_INDENT = "    "
_HEADS = {cls: (head, kinds) for head, (cls, kinds) in _CALLS.items()}


def _render_literal(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and math.isinf(value):
        return "-1e999" if value < 0 else "1e999"  # a literal that overflows to it
    return repr(value) if isinstance(value, float) else str(value)


def _render_decl(d) -> str:
    if isinstance(d, VarDecl):
        parts = ["DVar", d.name, DTYPE_KEYWORD[d.dtype]]
        if d.init is not None:
            parts.append(_render_literal(d.init))
        return " ".join(parts) + ";"
    assert isinstance(d, SetDecl)
    return f"DSet {d.name} {DTYPE_KEYWORD[d.dtype]} {d.size.render()} {d.dim.render()};"


def _render_arg(kind: str, value) -> str:
    if kind == "size":
        return value.render()
    if kind == "idents":
        return ", ".join(value)
    return value if kind == "ident" else f'"{value}"'


def _render_construct(c, indent: str = "") -> list[str]:
    if not isinstance(c, Iter):
        head, kinds = _HEADS[type(c)]
        args = ", ".join(_render_arg(k, getattr(c, f.name)) for k, f in zip(kinds, fields(c)))
        return [f"{indent}{head}({args});"]
    lines = [f"{indent}AccD_Iter({c.condition.render()})", f"{indent}{{"]
    for a in c.status_assigns:
        lines.append(f"{indent}{_INDENT}{a.name} = {_render_literal(a.value)};")
    for sub in c.body:
        lines.extend(_render_construct(sub, indent + _INDENT))
    lines.append(f"{indent}}}")
    return lines


def pretty_print(program: Program) -> str:
    lines = [_render_decl(d) for d in program.decls]
    for c in program.body:
        lines.extend(_render_construct(c))
    return "\n".join(lines) + "\n"
