"""accd: compile distance-algorithm DSL programs into pruned, instrumented
execution plans, with an analytical design-space explorer."""

__version__ = "0.1.0"

from .counters import CounterSet
from .dataset import Dataset, TopKResult, load_csv
from .metrics import MetricSpec, distance

__all__ = [
    "__version__",
    "CounterSet",
    "Dataset",
    "TopKResult",
    "load_csv",
    "MetricSpec",
    "distance",
]
