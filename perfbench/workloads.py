"""The benchmark's workloads: inputs from a seed, the compiled sample plan,
the accd call, and the checks on its result.

Inputs are generated here with numpy, following the recipe of
``accd.synth`` without calling it, so a change to accd cannot change a
workload. accd is imported only inside ``Prepared.load`` and the helpers
that inspect a ``RunResult``, so a caller can time that import.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

DT = 1e-3  # accd's default self-set integrator step, fixed here
SOFTENING = 1e-2  # accd's default force-law smoothing length, fixed here
PROGRAM_SEED = 0  # accd's internal seed (landmarks, initial centres)
BLK = 64


@dataclass(frozen=True)
class Workload:
    name: str
    sample: str  # file under samples/
    kind: str  # "knn" | "kmeans" | "nbody"
    n: int  # source points (particles for nbody)
    d: int  # must equal the sample's declared D
    blobs: int = 0  # 0: uniform [0, 1)^d
    box: float = 50.0  # blob centres uniform in [-box, box]^d
    clusters: int = 0  # kmeans only
    iter_cap: int = 1000  # kmeans only: accd's status_iter_cap

    @property
    def m(self) -> int:
        """Target-set size: clusters for kmeans, the particles themselves
        for nbody, an equal-sized second set for knn."""
        return self.clusters if self.kind == "kmeans" else self.n

    def design_groups(self) -> tuple[int, int]:
        """(source groups, target groups) by the ``accd bench`` rule."""
        root = math.isqrt(self.n)
        trg = {"knn": root, "kmeans": max(1, self.clusters // 8), "nbody": 1}[self.kind]
        return root, trg

    def sizes(self) -> dict:
        out = {"n": self.n, "m": self.m, "d": self.d, "blobs": self.blobs, "box": self.box}
        if self.kind == "kmeans":
            out["iter_cap"] = self.iter_cap
        return out


# Why each workload exists: perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("knn_clustered", "knn_join.ddsl", "knn", n=5000, d=24, blobs=12),
        Workload("knn_uniform", "knn_join.ddsl", "knn", n=2000, d=24),
        Workload(
            "kmeans_l1", "kmeans.ddsl", "kmeans", n=10000, d=20, blobs=50, clusters=200,
            iter_cap=15,
        ),
        Workload("nbody_radius", "nbody.ddsl", "nbody", n=4096, d=3, blobs=24, box=20.0),
    )
}

# Tiny sizes for the benchmark's own tests.
TINY = {
    "knn_clustered": dict(n=400, blobs=4),
    "knn_uniform": dict(n=300),
    "kmeans_l1": dict(n=800, blobs=4, clusters=16, iter_cap=6),
    "nbody_radius": dict(n=400, blobs=4, box=4.0),
}


def get(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    return dataclasses.replace(w, **TINY[name]) if tiny else w


# -- inputs ---------------------------------------------------------------


def _mixture(rng: np.random.Generator, n: int, centers: np.ndarray) -> np.ndarray:
    labels = rng.integers(0, centers.shape[0], size=n)
    return centers[labels] + rng.normal(0.0, 1.0, size=(n, centers.shape[1]))


def make_inputs(w: Workload, seed: int) -> list[np.ndarray]:
    """The workload's point sets, a pure function of the seed.

    Both knn sets are drawn from one mixture, so every query's neighbours
    lie in its own blob and the work does not swing with how the two sets'
    blobs happen to sit relative to each other.
    """
    rng = np.random.default_rng(seed)
    if w.blobs == 0:
        return [rng.uniform(0.0, 1.0, size=(w.n, w.d)) for _ in range(2)]
    centers = rng.uniform(-w.box, w.box, size=(w.blobs, w.d))
    count = 2 if w.kind == "knn" else 1
    return [_mixture(rng, w.n, centers) for _ in range(count)]


def initial_centers(points: np.ndarray, k: int) -> np.ndarray:
    """accd's k-means start: k distinct points drawn with the program seed."""
    rng = np.random.default_rng(PROGRAM_SEED)
    return points[np.sort(rng.choice(points.shape[0], size=k, replace=False))].copy()


# -- the program under test ----------------------------------------------


def compile_plan(root: Path, w: Workload):
    """Parse, validate and lower the sample, then rebind its set sizes."""
    from accd.ddsl import lower, parse, validate

    checked, diags = validate(parse((root / "samples" / w.sample).read_text()))
    if checked is None:
        raise RuntimeError(f"{w.sample}: " + "; ".join(str(d) for d in diags))
    plan = dataclasses.replace(lower(checked), source_size=w.n, target_size=w.m)
    if plan.dim != w.d:
        raise RuntimeError(f"{w.sample} declares D={plan.dim}, workload expects {w.d}")
    return plan


@dataclass
class Prepared:
    """A compiled plan, its datasets and run config, ready to call."""

    workload: Workload
    plan: object
    datasets: list
    config: object

    @classmethod
    def load(cls, root: Path, w: Workload, inputs: list[np.ndarray]) -> "Prepared":
        from accd.dataset import Dataset
        from accd.explorer import DesignConfig
        from accd.pipelines import RunConfig

        plan = compile_plan(root, w)
        src_groups, trg_groups = w.design_groups()
        design = DesignConfig(
            n_src_grp=src_groups, n_trg_grp=trg_groups, blk=BLK, simd=1, unroll=1
        )
        config = RunConfig(
            design=design,
            seed=PROGRAM_SEED,
            thread_count=1,
            oracle_mode="off",
            status_iter_cap=w.iter_cap,
            dt=DT,
            softening=SOFTENING,
        )
        return cls(w, plan, [Dataset.from_values(x) for x in inputs], config)

    def call(self):
        from accd import pipelines

        kind = self.workload.kind
        if kind == "knn":
            return pipelines.run_knn_join(self.plan, *self.datasets, self.config)
        if kind == "kmeans":
            return pipelines.run_kmeans(self.plan, self.datasets[0], self.config)
        return pipelines.run_nbody(self.plan, self.datasets[0], self.config)


# -- checks on a RunResult ------------------------------------------------


def answer_of(result):
    """A result's outputs in the shape ``compute_reference`` returns:
    knn (ids, distances); kmeans (assignments, centres, iterations);
    nbody (per-step CSR neighbour lists, trajectory)."""
    out = result.outputs
    if "topk" in out:
        return out["topk"].ids, out["topk"].distances
    if "assignments" in out:
        return out["assignments"], out["centroids"], result.iterations
    lists = [
        (np.cumsum([0] + [x.size for x in step]), np.concatenate(step))
        for step in out["neighbors"]
    ]
    return lists, np.stack(out["trajectories"])


def _flat_arrays(answer):
    if isinstance(answer, (tuple, list)):
        for part in answer:
            yield from _flat_arrays(part)
    else:
        yield np.ascontiguousarray(answer)


def digest(result, answer=None) -> str:
    """Hash of the outputs, counters and per-iteration stats; equal digests
    mean bitwise-equal runs."""
    h = hashlib.sha256()
    for arr in _flat_arrays(answer_of(result) if answer is None else answer):
        h.update(str((arr.dtype, arr.shape)).encode())
        h.update(arr.tobytes())
    meta = {
        "iterations": result.iterations,
        "counters": result.counters.as_dict(),
        "per_iteration": [s.to_json_dict() for s in result.per_iteration],
    }
    h.update(json.dumps(meta, sort_keys=True).encode())
    return h.hexdigest()


def conservation_problems(w: Workload, result) -> list[str]:
    """point_distances + pruned + all_inside + reused must cover every
    source-target pair, per iteration and over the run."""
    pairs = w.n * w.m
    problems = []
    for s in result.per_iteration:
        got = s.point_distances + s.pruned_pairs + s.all_inside_pairs + s.reused_pairs
        if got != pairs:
            problems.append(f"iteration {s.iteration}: {got} pairs accounted, want {pairs}")
    c = result.counters
    total = c.point_distances + c.pruned_pairs + c.all_inside_pairs + c.reused_pairs
    if total != pairs * result.iterations:
        problems.append(f"run: {total} pairs accounted, want {pairs * result.iterations}")
    return problems


def compute_reference(w: Workload, plan, inputs: list[np.ndarray], exact: bool = True):
    """The brute-force answer (``exact``) or the plain baseline's answer."""
    if w.kind == "knn":
        return reference.knn(inputs[0], inputs[1], int(plan.select.value), exact)
    if w.kind == "kmeans":
        init = initial_centers(inputs[0], w.clusters)
        return reference.kmeans_l1(inputs[0], init, w.iter_cap, exact)
    return reference.nbody(
        inputs[0], float(plan.select.value), plan.max_iter, DT, SOFTENING, exact
    )


def answer_problems(w: Workload, got, want) -> list[str]:
    """Differences between an answer (a run's, or the baseline's) and the
    reference answer."""
    if w.kind == "knn":
        return _knn_problems(*got, *want)
    if w.kind == "kmeans":
        problems = []
        if got[2] != want[2]:
            problems.append(f"{got[2]} iterations, reference took {want[2]}")
        bad = np.flatnonzero(got[0] != want[0])
        if bad.size:
            problems.append(f"{bad.size} assignments differ, first at point {int(bad[0])}")
        if not np.array_equal(got[1], want[1]):
            problems.append("centroids differ from the reference")
        return problems
    problems = []
    if not np.array_equal(got[1], want[1]):
        problems.append("trajectories differ from the reference integration")
    for step, ((offsets, nbrs), (want_off, want_nbrs)) in enumerate(zip(got[0], want[0]), 1):
        if not (np.array_equal(offsets, want_off) and np.array_equal(nbrs, want_nbrs)):
            problems.append(f"step {step}: neighbour lists differ from brute force")
    return problems


def _knn_problems(ids, dists, ref_ids, ref_dists) -> list[str]:
    """Same neighbour set per row (as accd's shadow check asks), each id
    carrying its own distance, and rows ordered by distance."""
    problems = []
    by_id = np.argsort(ids, axis=1)
    ref_by_id = np.argsort(ref_ids, axis=1)
    ids_sorted = np.take_along_axis(ids, by_id, axis=1)
    bad = np.flatnonzero(np.any(ids_sorted != np.take_along_axis(ref_ids, ref_by_id, axis=1), axis=1))
    if bad.size:
        problems.append(f"{bad.size} rows have a different neighbour set, first row {int(bad[0])}")
        return problems
    got = np.take_along_axis(dists, by_id, axis=1)
    want = np.take_along_axis(ref_dists, ref_by_id, axis=1)
    if not np.allclose(got, want, rtol=1e-9, atol=1e-9):
        problems.append("a neighbour's distance differs from its brute-force distance")
    if np.any(np.diff(dists, axis=1) < 0):
        problems.append("a row is not sorted by distance")
    return problems
