"""The JSON Schemas under ``src/accd/schemas`` name exactly what the code
emits. The run report is closed everywhere, and its counters and
per-iteration stats require every field of ``CounterSet`` and
``IterationStats`` and allow no other, so a field added on one side only
fails here. Every schema file is loaded by some test, and every ``$ref``
resolves to a schema of the package."""

import dataclasses
import json
from pathlib import Path

from referencing import Registry, Resource

import accd
from accd.counters import CounterSet
from accd.pipelines import IterationStats

SCHEMAS = Path(accd.__file__).parent / "schemas"
ALL = {p.name: json.loads(p.read_text()) for p in sorted(SCHEMAS.glob("*.json"))}
REPORT = ALL["run_report.schema.json"]


def _closed_keys(obj: dict) -> set[str]:
    """The keys of a closed object schema whose every key is required."""
    assert obj["type"] == "object" and obj["additionalProperties"] is False
    assert sorted(obj["required"]) == sorted(obj["properties"])
    return set(obj["required"])


def _walk(node):
    if isinstance(node, dict):
        yield node
        for value in node.values():
            yield from _walk(value)
    elif isinstance(node, list):
        for value in node:
            yield from _walk(value)


def test_report_counters_are_the_counter_set_fields():
    want = {f.name for f in dataclasses.fields(CounterSet)}
    assert _closed_keys(REPORT["properties"]["counters"]) == want


def test_report_per_iteration_items_are_the_iteration_stats_fields():
    want = {f.name for f in dataclasses.fields(IterationStats)}
    assert _closed_keys(REPORT["properties"]["per_iteration"]["items"]) == want


def test_every_object_of_the_run_report_is_closed():
    objects = [node for node in _walk(REPORT) if node.get("type") == "object"]
    # the report, config, design, per_iteration items, counters, layout, bench
    assert len(objects) == 7
    assert all(node["additionalProperties"] is False for node in objects)


def test_every_schema_file_is_loaded_by_a_test():
    here = Path(__file__).resolve()
    texts = "".join(p.read_text() for p in sorted(here.parent.glob("*.py")) if p != here)
    assert len(ALL) >= 3
    assert [name for name in ALL if name not in texts] == []


def test_every_ref_resolves():
    ids = [schema["$id"] for schema in ALL.values()]
    assert len(set(ids)) == len(ids)
    registry = Registry().with_resources(
        (schema["$id"], Resource.from_contents(schema)) for schema in ALL.values()
    )
    refs = 0
    for schema in ALL.values():
        resolver = registry.resolver(base_uri=schema["$id"])
        for node in _walk(schema):
            if "$ref" in node:
                resolver.lookup(node["$ref"])
                refs += 1
    assert refs >= 1
