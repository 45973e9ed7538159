"""Canonical DDSL rendering. parse(pretty_print(p)) == p structurally."""

from __future__ import annotations

from .ast import (
    ComputeDist,
    DistSelect,
    Iter,
    Program,
    SetDecl,
    Update,
    VarDecl,
    DTYPE_KEYWORD,
)

_INDENT = "    "


def _render_literal(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _render_decl(d) -> str:
    if isinstance(d, VarDecl):
        parts = ["DVar", d.name, DTYPE_KEYWORD[d.dtype]]
        if d.init is not None:
            parts.append(_render_literal(d.init))
        return " ".join(parts) + ";"
    assert isinstance(d, SetDecl)
    return f"DSet {d.name} {DTYPE_KEYWORD[d.dtype]} {d.size.render()} {d.dim.render()};"


def _render_construct(c, indent: str = "") -> list[str]:
    if isinstance(c, ComputeDist):
        return [
            f"{indent}AccD_Comp_Dist({c.p1}, {c.p2}, {c.dist_mat}, {c.id_mat}, "
            f'{c.dim.render()}, "{c.metric}", {c.weights.render()});'
        ]
    if isinstance(c, DistSelect):
        return [
            f"{indent}AccD_Dist_Select({c.dist_mat}, {c.id_mat}, {c.rng.render()}, "
            f'"{c.scope}", {c.out});'
        ]
    if isinstance(c, Update):
        return [f"{indent}AccD_Update({', '.join(c.args)});"]
    assert isinstance(c, Iter)
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
