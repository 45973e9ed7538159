"""Seeded differential fuzz: small random problems of all three pipeline
shapes, run against the brute-force oracles in shadow mode.

Each seed draws a pipeline (k-means twice as often as the others), a
metric (weighted ones with some zero weights), a dimension, an input shape
(Gaussian, grid ties, duplicates, far offsets, collinear), group counts,
a thread count and a magnitude: unit scale, any scale from 1e-300 up to the
domain limit of ``MetricSpec.check_domain``, the limit itself, or just past
it, which must be a ``RangeError``. A fixed seed list keeps the cases the
same from run to run; a RuntimeWarning fails the run (``pyproject.toml``).
"""

import numpy as np
import pytest

from accd.dataset import Dataset
from accd.ddsl.lowering import SelectSpec
from accd.errors import RangeError
from accd.explorer import DesignConfig
from accd.metrics import MetricSpec
from accd.pipelines import RunConfig, run_plan

from conftest import domain_scales, make_plan

METRICS = ("Unweighted L1", "Unweighted L2", "Weighted L1", "Weighted L2")
DIMS = (1, 2, 3, 5, 9, 24)
SHAPES = ("gaussian", "grid", "duplicate", "offset_1e3", "offset_1e6", "collinear")
PIPELINES = ("kmeans", "kmeans", "knn", "nbody")
MAGNITUDES = ("unit", "any", "unit", "any", "limit", "past")


def _points(rng: np.random.Generator, shape: str, n: int, d: int) -> np.ndarray:
    if shape == "grid":  # ties everywhere
        return rng.integers(0, 3, size=(n, d)).astype(np.float64)
    if shape == "duplicate":
        base = rng.normal(size=(max(1, n // 5), d))
        return base[rng.integers(0, base.shape[0], size=n)]
    if shape == "collinear":
        return rng.normal(size=(n, 1)) * rng.normal(size=(1, d)) + rng.normal(size=(1, d))
    x = rng.normal(size=(n, d)) * 3.0
    return x + {"gaussian": 0.0, "offset_1e3": 1e3, "offset_1e6": 1e6}[shape]


def _case(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    kind = PIPELINES[seed % len(PIPELINES)]
    name = METRICS[rng.integers(len(METRICS))]
    d = int(DIMS[rng.integers(len(DIMS))])
    weights = None
    if name.startswith("Weighted"):
        weights = rng.uniform(0.0, 2.0, size=d) * (rng.random(d) < 0.7)
    n = int(rng.integers(20, 120))
    x = _points(rng, SHAPES[rng.integers(len(SHAPES))], n, d)
    case = {
        "kind": kind,
        "metric": name,
        "weights": weights,
        "design": DesignConfig(
            n_src_grp=int(rng.integers(1, 40)), n_trg_grp=int(rng.integers(1, 40))
        ),
        "threads": int(rng.integers(1, 3)),
        "magnitude": MAGNITUDES[(seed // len(PIPELINES)) % len(MAGNITUDES)],
        "sets": [x],
    }
    if kind == "knn":
        case["sets"].append(_points(rng, SHAPES[rng.integers(len(SHAPES))], n // 2 + 5, d))
        case["k"] = int(rng.integers(1, 12))
    elif kind == "kmeans":
        k = int(rng.integers(1, min(25, n + 1)))
        case["sets"].append(x[np.sort(rng.choice(n, size=k, replace=False))])
    else:
        # a radius at a low quantile of the pairwise distances, in units of
        # the points' spread, scaled with them
        case["radius"] = float(rng.uniform(0.1, 0.6))
    case["rng"] = rng
    return case


def _run(case: dict, scale: float):
    kind, (x, *rest) = case["kind"], [v * scale for v in case["sets"]]
    n, d = x.shape
    config = RunConfig(design=case["design"], oracle_mode="shadow", thread_count=case["threads"])
    metric, weights = case["metric"], case["weights"]
    if kind == "knn":
        (y,) = rest
        select = SelectSpec(float(case["k"]))
        plan = make_plan("oneshot_two_set", n, y.shape[0], d, select, None, metric)
        return run_plan(plan, Dataset.from_values(x), Dataset.from_values(y), config, weights)
    if kind == "kmeans":
        (init,) = rest
        select = SelectSpec(1.0)
        plan = make_plan("iterative_two_set", n, init.shape[0], d, select, 6, metric)
        return run_plan(
            plan, Dataset.from_values(x), None, config, weights, initial_clusters=init
        )
    spread = float(np.max(x.max(axis=0) - x.min(axis=0)))
    radius = case["radius"] * spread
    if not radius > 0:  # all points equal, or their spread underflows
        radius = 1.0
    select = SelectSpec(radius)
    plan = make_plan("iterative_self_set", n, n, d, select, 3, metric)
    return run_plan(plan, Dataset.from_values(x), None, config, weights)


def _domain(case: dict) -> tuple[list[MetricSpec], list[np.ndarray]]:
    """The metrics whose domain a run checks, and the sets it checks
    together: n-body checks each step's positions with the next step's,
    under its metric and under the force rule's Euclidean distance."""
    metric = MetricSpec.from_name(case["metric"], weights=case["weights"])
    if case["kind"] == "nbody":
        return [metric, MetricSpec()], case["sets"] * 2
    return [metric], case["sets"]


SEEDS = list(range(336))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_problem_equals_the_oracle_or_is_a_range_error(seed):
    case = _case(seed)
    inside, past = domain_scales(*_domain(case))
    magnitude = case["magnitude"]
    if magnitude == "past":
        with pytest.raises(RangeError):
            _run(case, past)
        return
    if magnitude == "unit":
        scale = 1.0
    elif magnitude == "limit":
        scale = inside
    else:
        scale = float(10.0 ** case["rng"].uniform(-300.0, np.log10(inside)))
    result = _run(case, min(scale, inside))
    assert result.oracle_s > 0


@pytest.mark.parametrize(
    "shape, d, metric",
    [("gaussian", 3, "Unweighted L2"), ("offset_1e6", 5, "Unweighted L1"),
     ("collinear", 9, "Weighted L2")],
)
def test_kmeans_with_more_than_64_centre_groups_equals_the_oracle(shape, d, metric):
    # more non-empty centre groups than one machine word has bits: the
    # search keys each row by a reach pattern of more than 8 bytes
    rng = np.random.default_rng(1000 + d)
    x = _points(rng, shape, 400, d)
    k = int(rng.integers(150, 200))
    init = x[np.sort(rng.choice(x.shape[0], size=k, replace=False))]
    weights = rng.uniform(0.0, 2.0, size=d) * (np.arange(d) != 0) if metric[0] == "W" else None
    design = DesignConfig(n_src_grp=8, n_trg_grp=int(rng.integers(90, 120)))
    select = SelectSpec(1.0)
    plan = make_plan("iterative_two_set", x.shape[0], k, d, select, 6, metric)
    config = RunConfig(design=design, oracle_mode="shadow")
    result = run_plan(plan, Dataset.from_values(x), None, config, weights, initial_clusters=init)
    assert result.oracle_s > 0
    assert sum(b > a for a, b in result.layout.group_slices.tolist()) > 64
