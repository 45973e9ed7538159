"""accd: compile distance-algorithm DSL programs into pruned, instrumented
execution plans, with an analytical design-space explorer."""

__version__ = "0.1.0"

from .counters import CounterSet
from .dataset import Dataset, DistanceMatrix, TopKResult, load_csv, pairwise_brute, select_topk
from .metrics import MetricSpec, distance

__all__ = [
    "__version__",
    "CounterSet",
    "Dataset",
    "DistanceMatrix",
    "TopKResult",
    "load_csv",
    "pairwise_brute",
    "select_topk",
    "MetricSpec",
    "distance",
]
