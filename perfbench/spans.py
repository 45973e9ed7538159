"""Outside-in tracing of accd's layers.

The traced run rebinds public functions in the namespace of their caller
(``pipelines.py`` and ``gti.py`` import them by name) with wrappers that
record one span per call: name, start, end, parent span and run id. Spans
are kept in memory; the caller writes them out when the benchmark ends.
The wrappers are removed again when the ``installed`` block exits, so an
untraced call runs the program unchanged.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter
from dataclasses import dataclass

# (module whose global is rebound, function name, span name)
WRAPPED = (
    ("accd.pipelines", "build_groups", "gti.build_groups"),
    ("accd.pipelines", "init_oneshot_state", "gti.init_oneshot_state"),
    ("accd.pipelines", "filter_oneshot", "gti.filter_oneshot"),
    ("accd.pipelines", "filter_iterative", "gti.filter_iterative"),
    ("accd.pipelines", "reorder_inter_group", "layout.reorder_inter_group"),
    ("accd.pipelines", "pack_intra_group", "layout.pack_intra_group"),
    ("accd.pipelines", "tile_distances", "kernel.tile_distances"),
    ("accd.pipelines", "rowwise_lexsort", "dataset.rowwise_lexsort"),
    ("accd.pipelines", "group_means", "oracles.group_means"),
    ("accd.pipelines", "default_force_rule", "pipelines.default_force_rule"),
    ("accd.gti", "brute_rows", "dataset.brute_rows"),
    ("accd.gti", "group_means", "gti.group_means"),
)
ROOT = "pipelines.run"

# Span name -> the per-layer time metric its self time is added to.
# ``gti.group_means`` runs only inside landmark grouping, so it is grouping
# time; ``oracles.group_means`` called from the pipeline is the k-means
# centre update.
LAYER_OF = {
    ROOT: "pipelines.self_s",
    "gti.build_groups": "gti.build_groups_s",
    "gti.group_means": "gti.build_groups_s",
    "dataset.brute_rows": "dataset.brute_rows_s",
    "gti.init_oneshot_state": "gti.filter_s",
    "gti.filter_oneshot": "gti.filter_s",
    "gti.filter_iterative": "gti.filter_s",
    "layout.reorder_inter_group": "layout.s",
    "layout.pack_intra_group": "layout.s",
    "kernel.tile_distances": "kernel.tile_s",
    "dataset.rowwise_lexsort": "dataset.rowwise_lexsort_s",
    "oracles.group_means": "oracles.group_means_s",
    "pipelines.default_force_rule": "pipelines.default_force_rule_s",
}
LAYER_TIMES = tuple(dict.fromkeys(LAYER_OF.values()))


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


class Tracer:
    """Collects spans and per-name counts (calls, and for the top-K merge
    the number of sorted elements)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self.run_id = -1

    def span(self, name: str, fn, *args, **kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run_id))

    def run(self, fn):
        """Call ``fn`` as one traced run under a fresh root span."""
        self.run_id += 1
        return self.span(ROOT, fn)

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            self.counts[(self.run_id, name)] += 1
            if name == "dataset.rowwise_lexsort":
                self.counts[(self.run_id, "dataset.rowwise_lexsort.elems")] += args[0].size
            return self.span(name, fn, *args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every wrapped function for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_times(self, run_id: int) -> tuple[dict[str, float], float]:
        """Self time per layer metric for one run, and the run's duration.

        Spans are strictly nested (one thread), so a span's self time is
        its duration minus its direct children's durations.
        """
        spans = [s for s in self.spans if s.run_id == run_id]
        child_time: Counter = Counter()
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        times = dict.fromkeys(LAYER_TIMES, 0.0)
        root_duration = 0.0
        for s in spans:
            times[LAYER_OF[s.name]] += (s.end - s.start) - child_time[s.span_id]
            if s.name == ROOT:
                root_duration = s.end - s.start
        return times, root_duration

    def count(self, run_id: int, name: str) -> int:
        return self.counts[(run_id, name)]
