"""The benchmark's tracer (``perfbench/spans.py``) rebinds public functions
by name in the modules that call them. A refactor that inlines or renames
one of them would break only a traced benchmark run; this test makes it
fail here first. It reads the tracer's table and runs none of its code."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _wrapped() -> tuple:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]:
            return ast.literal_eval(node.value)
    raise LookupError(f"no WRAPPED table in {SPANS}")


@pytest.mark.parametrize("module_name, attr, span", _wrapped())
def test_every_traced_function_is_a_module_global(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(vars(module).get(attr)), f"{span}: {module_name}.{attr} is gone"
