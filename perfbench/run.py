"""accd benchmark: one command, four DDSL-sample workloads.

    python3 perfbench/run.py --workload knn_clustered --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout (``src/accd`` and ``samples/``).
With ``--trace 0`` it prints the end-to-end metrics (run_s, setup_s,
peak_alloc_mb); with ``--trace 1`` a separate traced run prints the
per-layer metrics. Every result is checked against a brute-force
reference; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when no
run failed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import workloads
from spans import LAYER_TIMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
# Fresh processes per --trace 0 run: each times one set-up (import,
# compile, datasets, cold call) and then warm calls for its share of
# --seconds.
SETUP_REPEATS = 3
COMPILE_REPEATS = 21
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_alloc_mb": "MB"}
COUNT_METRICS = (
    "gti.grouping_distances",
    "gti.bound_computations",
    "gti.pruned_pairs",
    "kernel.tiles",
    "kernel.point_distances",
    "kernel.mac_ops",
    "kernel.bytes_streamed",
    "dataset.rowwise_lexsort.elems",
    "pipelines.reused_pairs",
    "pipelines.all_inside_pairs",
    "layout.source_batches",
)
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in COUNT_METRICS},
    "kernel.bytes_streamed": "B",
    "gti.saving": "ratio",
    "kernel.pairs_per_s": "1/s",
    "ddsl.compile_s": "s",
    "trace.overhead": "ratio",
}


class Tally:
    """Attempted and failed pipeline calls, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:3])


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


# -- run record -------------------------------------------------------------


def _openblas() -> dict:
    """OpenBLAS version and thread count of the library numpy loaded."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            conf = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if conf is not None and threads is not None:
                conf.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return {"config": conf().decode(), "threads": threads()}
    return {"config": "unknown", "threads": "unknown"}


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or "unknown"


def run_record(w: workloads.Workload, seed: int, trace: int) -> dict:
    import scipy

    return {
        "workload": w.name,
        "sample": w.sample,
        "sizes": w.sizes(),
        "seed": seed,
        "trace": trace,
        "git_rev": _git_rev(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "pipeline_threads": 1,
    }


# -- worker: one set-up plus warm calls, in a fresh process ----------------


def worker(name: str, seed: int, seconds: float, tiny: bool) -> dict:
    """Time one set-up (import accd, compile, build datasets, cold call),
    then warm calls until ``seconds`` have passed (at least one)."""
    w = workloads.get(name, tiny)
    inputs = workloads.make_inputs(w, seed)
    t0 = time.perf_counter()
    import accd  # part of the timed set-up

    prepared = workloads.Prepared.load(ROOT, w, inputs)
    result = prepared.call()
    setup_s = time.perf_counter() - t0
    calls = [_call_summary(w, result, None)]
    start = time.perf_counter()
    while len(calls) < 2 or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        result = prepared.call()
        calls.append(_call_summary(w, result, time.perf_counter() - t))
    return {"setup_s": setup_s, "accd_file": accd.__file__, "calls": calls}


def _call_summary(w, result, seconds):
    return {
        "s": seconds,
        "digest": workloads.digest(result),
        "problems": workloads.conservation_problems(w, result),
    }


def _spawn_worker(w, seed: int, seconds: float, tiny: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--workload", w.name,
           "--seed", str(seed), "--seconds", repr(seconds)]
    if tiny:
        cmd.append("--tiny")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(out["accd_file"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"worker imported accd from {out['accd_file']}")
    return out


# -- the two kinds of run ---------------------------------------------------


def _check(w, result, ref) -> tuple[list[str], str]:
    """Problems of one result against the reference, and its digest."""
    answer = workloads.answer_of(result)
    problems = workloads.answer_problems(w, answer, ref)
    return problems + workloads.conservation_problems(w, result), workloads.digest(result, answer)


def _repeat_problems(w, result, first_digest: str) -> list[str]:
    problems = workloads.conservation_problems(w, result)
    if workloads.digest(result) != first_digest:
        problems.append("outputs or counters differ from the checked call")
    return problems


def measure_end_to_end(w, seed, seconds, tiny, ref, inputs, tally: Tally, record: dict) -> dict:
    setups: list[float] = []
    runs: list[float] = []
    calls: list[tuple[str, list[str], str]] = []
    for i in range(SETUP_REPEATS):
        out = _spawn_worker(w, seed, seconds / SETUP_REPEATS, tiny)
        setups.append(out["setup_s"])
        for j, call in enumerate(out["calls"]):
            calls.append((call["digest"], call["problems"], f"worker {i} call {j}"))
            if call["s"] is not None:
                runs.append(call["s"])

    # Peak traced allocation over one separate, untimed call. Its output is
    # the one checked against the reference; every timed call must repeat
    # it bitwise.
    prepared = workloads.Prepared.load(ROOT, w, inputs)
    tracemalloc.start()
    try:
        result = prepared.call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    problems, first = _check(w, result, ref)
    tally.record(problems, "tracemalloc call")
    for dig, problems, what in calls:
        if dig != first:
            problems = problems + ["outputs or counters differ from the checked call"]
        tally.record(problems, what)

    record["samples"] = {"run_s": len(runs), "setup_s": len(setups), "peak_alloc_mb": 1}
    record["run_s_all"] = runs
    record["setup_s_all"] = setups
    return {"run_s": _median(runs), "setup_s": _median(setups), "peak_alloc_mb": peak / 1e6}


def measure_per_layer(w, seconds, ref, inputs, tally: Tally, record: dict) -> dict:
    """Alternate untraced and traced calls. Layer times are medians over
    the traced calls; counts come from the result, which repeats exactly."""
    compile_s = []
    for _ in range(COMPILE_REPEATS):
        t = time.perf_counter()
        workloads.compile_plan(ROOT, w)
        compile_s.append(time.perf_counter() - t)
    prepared = workloads.Prepared.load(ROOT, w, inputs)
    result = prepared.call()
    problems, first = _check(w, result, ref)
    tally.record(problems, "cold call")

    tracer = Tracer()
    plain: list[float] = []
    traced: list[dict[str, float]] = []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        again = prepared.call()
        plain.append(time.perf_counter() - t)
        tally.record(_repeat_problems(w, again, first), f"untraced call {len(plain)}")
        with tracer.installed():
            again = tracer.run(prepared.call)
        times, duration = tracer.layer_times(tracer.run_id)
        problems = _repeat_problems(w, again, first)
        if abs(sum(times.values()) - duration) > 1e-6 * max(1.0, duration):
            problems.append(f"self times sum to {sum(times.values())}, run took {duration}")
        tally.record(problems, f"traced call {len(traced) + 1}")
        traced.append({"duration": duration, **times})

    metrics = {name: _median([t[name] for t in traced]) for name in LAYER_TIMES}
    c = result.counters
    metrics.update({
        "gti.grouping_distances": c.grouping_distances,
        "gti.bound_computations": c.bound_computations,
        "gti.pruned_pairs": c.pruned_pairs,
        "kernel.tiles": tracer.count(tracer.run_id, "kernel.tile_distances"),
        "kernel.point_distances": c.point_distances,
        "kernel.mac_ops": c.mac_ops,
        "kernel.bytes_streamed": c.bytes_streamed,
        "dataset.rowwise_lexsort.elems": tracer.count(tracer.run_id, "dataset.rowwise_lexsort.elems"),
        "pipelines.reused_pairs": c.reused_pairs,
        "pipelines.all_inside_pairs": c.all_inside_pairs,
        "layout.source_batches": sum(s.source_batches for s in result.per_iteration),
    })
    metrics["gti.saving"] = 1.0 - c.point_distances / (w.n * w.m * result.iterations)
    metrics["kernel.pairs_per_s"] = c.point_distances / metrics["kernel.tile_s"]
    metrics["ddsl.compile_s"] = _median(compile_s)
    traced_run_s = _median([t["duration"] for t in traced])
    metrics["trace.overhead"] = traced_run_s / _median(plain) - 1.0

    record["samples"] = {"traced_calls": len(traced), "untraced_calls": len(plain),
                         "ddsl.compile_s": len(compile_s)}
    record["traced_run_s"] = traced_run_s
    record["untraced_run_s"] = _median(plain)
    record["iterations"] = result.iterations
    _write_out(f"spans-{w.name}-seed{record['seed']}.jsonl",
               "".join(json.dumps(s.to_json_dict()) + "\n" for s in tracer.spans))
    return metrics


def _write_out(name: str, text: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(text)


def time_baseline(w, plan, inputs, ref, record: dict) -> None:
    """Plain brute force of the same problem, as context: no accd change
    can move it, so it is not an end-to-end metric."""
    t = time.perf_counter()
    answer = workloads.compute_reference(w, plan, inputs, exact=False)
    record["baseline_s"] = time.perf_counter() - t
    record["baseline_problems"] = workloads.answer_problems(w, answer, ref)


def benchmark(name: str, seed: int, seconds: float, trace: int, tiny: bool = False):
    """Run one workload; returns (result line dict, run record)."""
    w = workloads.get(name, tiny)
    inputs = workloads.make_inputs(w, seed)
    plan = workloads.compile_plan(ROOT, w)
    ref = workloads.compute_reference(w, plan, inputs)
    record = run_record(w, seed, trace)
    tally = Tally()
    if trace:
        values = measure_per_layer(w, seconds, ref, inputs, tally, record)
        units = PER_LAYER_UNITS
    else:
        values = measure_end_to_end(w, seed, seconds, tiny, ref, inputs, tally, record)
        units = END_TO_END_UNITS
    time_baseline(w, plan, inputs, ref, record)
    record["error_rate"] = tally.failed / tally.attempted
    record["problems"] = tally.problems[:20]
    line = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return line, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the benchmark's tests")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/accd", "samples") if not (ROOT / p).is_dir()]
    if missing:
        print(f"perfbench: not a source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.worker:
        print(json.dumps(worker(args.workload, args.seed, args.seconds, args.tiny)))
        return 0

    line, record = benchmark(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    _write_out(f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json",
               json.dumps(record, indent=2, default=str) + "\n")
    samples = record["samples"]
    for key, m in line["metrics"].items():
        n = samples.get(key, samples.get("traced_calls"))
        print(f"{args.workload:<14} {key:<32} {m['value']:>16.6g} {m['unit']:<6} samples={n}")
    print(f"{args.workload:<14} {'error_rate':<32} {record['error_rate']:>16.6g} ratio  "
          f"samples={line['attempted']}")
    print(f"{args.workload:<14} {'baseline_s (context)':<32} {record['baseline_s']:>16.6g} s      "
          f"problems={len(record['baseline_problems'])}")
    for problem in record["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print("record: " + json.dumps(record, default=str))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
