"""Library code that only tests call is deleted: every top-level function
and class of ``src/accd`` is referenced elsewhere in ``src/accd``, or
exported by ``accd/__init__.py``. The check reads the sources with ``ast``
and imports nothing."""

import ast
from pathlib import Path

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
