"""Library code that only tests call is deleted: every top-level function
and class of ``src/accd`` is referenced elsewhere in ``src/accd``, or
exported by ``accd/__init__.py``, and every dataclass field is read there.
And every distance tile goes through the one tile engine, by one batching
path: ``kernel.tile_distances`` is referenced by one function alone,
``pipelines._tile_rows``, and ``layout.reorder_inter_group`` by
``pipelines._sweep`` alone. The checks read the sources with ``ast`` and
import nothing."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "accd"
# perfbench's k-means reference, which no library code calls
ALLOWED = {("oracles", "lloyd_kmeans")}


def _names(node: ast.AST) -> set[str]:
    """The names a node's code refers to: loaded names, attributes and
    names imported from other modules."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def test_every_top_level_definition_is_used_or_exported():
    defined, used = [], set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
                # a definition's own body does not count: recursion is no use
                used |= _names(node) - {node.name}
            else:
                used |= _names(node)
    assert len(defined) > 50  # the walk found the package
    unused = {(m, name) for m, name in defined if name not in used} - ALLOWED
    assert unused == set(), f"defined but never referenced in src/accd: {sorted(unused)}"



def _references(name: str, node: ast.AST, scope: str | None, out: list) -> None:
    """Append the innermost enclosing function (None at module level) of
    each reference to ``name`` under ``node``, a call or not, and of each
    import that renames it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    found = getattr(node, "id", None) or getattr(node, "attr", None)
    if isinstance(node, ast.alias) and node.name == name and node.asname:
        found = node.name
    if found == name and isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
        out.append(scope)
    for child in ast.iter_child_nodes(node):
        _references(name, child, scope, out)


@pytest.mark.parametrize(
    "name, user", [("tile_distances", "_tile_rows"), ("reorder_inter_group", "_sweep")]
)
def test_one_function_tiles(name, user):
    # one tile engine, and one batching path into it
    where = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        found = []
        _references(name, ast.parse(path.read_text()), None, found)
        where += [(module, scope) for scope in found]
    assert where == [("pipelines", user)]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", None) == "dataclass" or getattr(target, "attr", None) == "dataclass":
            return True
    return False


def _serializes_every_field(node: ast.ClassDef) -> bool:
    """Whether the class reads all its fields at once, through
    ``dataclasses.fields`` or ``asdict``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            name = getattr(sub.func, "id", None) or getattr(sub.func, "attr", None)
            if name in ("fields", "asdict"):
                return True
    return False


def test_every_dataclass_field_is_read():
    """Every field of a dataclass of ``src/accd`` is read somewhere in
    ``src/accd``: loaded as an attribute, or named by a string constant in
    ``getattr``. A class that reads every field at once, through
    ``dataclasses.fields`` or ``asdict`` (``CounterSet``, ``IterationStats``
    and ``Domains``), is exempt. Fields are matched by
    name alone, so a field that shares its name with a field or attribute
    read elsewhere slips through: ``Dataset.declared_dtype`` did, through
    ``ExecutionPlan.declared_dtype``."""
    declared, read = [], set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                read.add(node.args[1].value)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                if _serializes_every_field(node):
                    continue
                declared += [
                    (module, node.name, item.target.id)
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
    assert len(declared) > 30  # the walk found the dataclasses
    unread = [field for field in declared if field[2] not in read]
    assert unread == [], f"dataclass fields never read in src/accd: {unread}"
