"""Command-line entry point.

Subcommands: compile (parse/validate/lower a .ddsl file), run (execute a
lowered plan over CSV datasets), explore (design-space search), bench
(synthetic benchmark comparing the filtered pipeline against the naive
oracle). Exit codes: 0 success, 1 diagnostics or infeasibility, 2 runtime
error (IO, format, oracle mismatch).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .counters import CounterSet
from .dataset import Dataset, load_csv
from .ddsl import lower, parse, pretty_print, validate
from .ddsl.lowering import ExecutionPlan, SelectSpec
from .errors import (
    AccdError,
    CapacityError,
    ConfigError,
    DdslSyntaxError,
    FormatError,
    InvalidQueryError,
    NoFeasibleConfigError,
    OracleMismatchError,
    RangeError,
    TableMissError,
    UnsupportedProgramError,
)
from .explorer import (
    DesignConfig,
    Domains,
    GaParams,
    ProblemSpec,
    default_domains,
    default_platform,
    explore,
    parse_platform_file,
)
from .oracles import knn_topk, lloyd_kmeans, radius_neighbors
from .pipelines import RunConfig, RunResult, run_kmeans, run_knn_join, run_nbody, run_plan
from .synth import gaussian_mixture, radius_for_mean_neighbors

REPORT_SCHEMA_VERSION = 1

_DIAG_EXIT = (
    DdslSyntaxError,
    UnsupportedProgramError,
    InvalidQueryError,
    RangeError,
    NoFeasibleConfigError,
    CapacityError,
    TableMissError,
)


class _DiagnosticsFailed(Exception):
    pass


def _ast_to_json(node):
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        out = {"node": type(node).__name__}
        for f in dataclasses.fields(node):
            if f.name == "span":
                continue
            out[f.name] = _ast_to_json(getattr(node, f.name))
        return out
    if isinstance(node, (list, tuple)):
        return [_ast_to_json(x) for x in node]
    return node


def _load_program(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        program = parse(text)
    except DdslSyntaxError as exc:
        print(f"{path}:{exc.line}:{exc.col}: error: {exc}", file=sys.stderr)
        raise _DiagnosticsFailed() from exc
    checked, diags = validate(program)
    for d in diags:
        print(d.format(path), file=sys.stderr)
    if checked is None:
        raise _DiagnosticsFailed()
    return program, checked


def cmd_compile(args) -> int:
    program, checked = _load_program(args.file)
    if args.emit == "ast":
        print(json.dumps(_ast_to_json(program), indent=2))
        return 0
    if args.emit == "text":
        sys.stdout.write(pretty_print(program))
        return 0
    plan = lower(checked)
    print(json.dumps(plan.to_json_dict(), indent=2))
    return 0


def _load_config(path: str, cls, field=lambda v: v):
    """Build ``cls`` from the JSON object in ``path``, passing each field's
    value through ``field``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected a JSON object of {cls.__name__} fields")
    try:
        return cls(**{k: field(v) for k, v in payload.items()})
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _design_from_args(args) -> DesignConfig:
    if args.design:
        return _load_config(args.design, DesignConfig)
    return DesignConfig(n_src_grp=args.src_groups, n_trg_grp=args.trg_groups, blk=args.blk)


def _thread_default() -> int:
    env = os.environ.get("ACCD_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def _check_dims(plan: ExecutionPlan, ds: Dataset, what: str, size: int, allow: bool):
    problems = []
    if ds.n != size:
        problems.append(f"{what} has {ds.n} rows, plan declares {size}")
    if ds.d != plan.dim:
        problems.append(f"{what} has dim {ds.d}, plan declares {plan.dim}")
    if problems and not allow:
        raise RangeError("; ".join(problems) + " (use --allow-dim-from-data to rebind)")


def _rebind_plan(plan: ExecutionPlan, src: Dataset, trg: Dataset | None) -> ExecutionPlan:
    return dataclasses.replace(
        plan,
        source_size=src.n,
        dim=src.d,
        target_size=trg.n if trg is not None else plan.target_size,
    )


def _result_report(plan: ExecutionPlan, config: RunConfig, result: RunResult, outputs_path):
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "pipeline_kind": result.pipeline_kind,
        "plan": plan.to_json_dict(),
        "config": {
            "design": config.design.to_json_dict(),
            "seed": config.seed,
            "layout_enabled": config.layout_enabled,
            "oracle_mode": config.oracle_mode,
            "thread_count": config.thread_count,
        },
        "iterations": result.iterations,
        "per_iteration": [s.to_json_dict() for s in result.per_iteration],
        "counters": result.counters.as_dict(),
        "measured_saving_mean": result.measured_saving_mean,
        "wall_time_s": result.wall_time_s,
        "outputs_path": str(outputs_path) if outputs_path else None,
        "layout": result.layout.to_json_dict() if result.layout is not None else None,
    }


def _write_outputs(result: RunResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if result.pipeline_kind == "iterative_two_set":
            fh.write("point_id,cluster\n")
            for i, c in enumerate(result.outputs["assignments"]):
                fh.write(f"{i},{int(c)}\n")
        elif result.pipeline_kind == "oneshot_two_set":
            topk = result.outputs["topk"]
            fh.write("point_id,rank,neighbor_id,distance\n")
            for i in range(topk.ids.shape[0]):
                for r in range(topk.ids.shape[1]):
                    fh.write(f"{i},{r},{int(topk.ids[i, r])},{topk.distances[i, r]!r}\n")
        else:
            fh.write("step,point_id," + ",".join(
                f"x{j}" for j in range(result.outputs["trajectories"][0].shape[1])
            ) + ",neighbor_count\n")
            for step, lists in enumerate(result.outputs["neighbors"], start=1):
                posn = result.outputs["trajectories"][step - 1]
                for i in range(len(lists)):
                    coords = ",".join(repr(v) for v in posn[i])
                    fh.write(f"{step},{i},{coords},{lists[i].size}\n")


def cmd_run(args) -> int:
    _, checked = _load_program(args.file)
    plan = lower(checked)
    src = load_csv(args.src)
    trg = load_csv(args.trg) if args.trg else None
    weights = None
    if plan.weight_set is not None:
        if not args.weights:
            raise RangeError(f"plan uses weight set '{plan.weight_set}'; pass --weights CSV")
        weights = load_csv(args.weights).values.ravel()

    _check_dims(plan, src, "source dataset", plan.source_size, args.allow_dim_from_data)
    if trg is not None and plan.pipeline_kind == "oneshot_two_set":
        _check_dims(plan, trg, "target dataset", plan.target_size, args.allow_dim_from_data)
    if args.allow_dim_from_data:
        plan = _rebind_plan(plan, src, trg if plan.pipeline_kind == "oneshot_two_set" else None)

    config = RunConfig(
        design=_design_from_args(args),
        seed=args.seed,
        layout_enabled=args.layout == "on",
        oracle_mode=args.oracle,
        thread_count=args.threads,
    )
    result = run_plan(plan, src, trg, config, weights=weights)

    if args.out:
        _write_outputs(result, args.out)
    report = _result_report(plan, config, result, args.out)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _resolve_platform(spec: str, domains: Domains):
    if spec == "default":
        return default_platform(domains)
    return parse_platform_file(spec)


def cmd_explore(args) -> int:
    problem = _load_config(args.problem, ProblemSpec)
    domains = _load_config(args.domains, Domains, tuple) if args.domains else default_domains()
    platform = _resolve_platform(args.platform, domains)
    ga = _load_config(args.ga, GaParams) if args.ga else GaParams()
    try:
        result = explore(problem, platform, domains, ga, seed=args.seed)
    except NoFeasibleConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.nearest_miss is not None:
            print("nearest miss:", json.dumps(exc.nearest_miss, indent=2), file=sys.stderr)
        return 1
    payload = {"schema_version": REPORT_SCHEMA_VERSION, **result.to_json_dict()}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _bench_kmeans(scale: float, seed: int, threads: int):
    n = max(200, int(25010 * scale))
    d = 11
    k = max(2, int(158 * scale))
    points = gaussian_mixture(n, d, k, seed=seed, center_box=50.0, spread=1.0)
    design = DesignConfig(n_src_grp=max(8, int(np.sqrt(n))), n_trg_grp=max(2, k // 8), blk=64)
    plan = ExecutionPlan(
        pipeline_kind="iterative_two_set",
        source_set="pSet",
        target_set="cSet",
        source_size=n,
        target_size=k,
        dim=d,
        metric_name="Unweighted L2",
        weight_set=None,
        select=SelectSpec(kind="count", value=1.0, scope="smallest"),
        update_targets=("cSet",),
        max_iter=8,
        exit_on_status=False,
        status_var=None,
    )
    config = RunConfig(design=design, seed=seed, thread_count=threads)
    result = run_kmeans(plan, points, config)
    rng = np.random.default_rng(seed)
    init = points.values[np.sort(rng.choice(n, size=k, replace=False))].copy()
    t0 = time.perf_counter()
    naive_counters = CounterSet()
    history, _, iters = lloyd_kmeans(
        points.values, init, plan.metric_spec(), result.iterations, naive_counters
    )
    naive_time = time.perf_counter() - t0
    exact = bool(np.array_equal(history[-1], result.outputs["assignments"]))
    return result, naive_counters.point_distances, naive_time, exact, {"n": n, "d": d, "k": k}


def _bench_knn(scale: float, seed: int, threads: int):
    n = max(200, int(53413 * scale))
    d = 24
    k = min(50, n)
    src = gaussian_mixture(n, d, 32, seed=seed, center_box=50.0, spread=1.0)
    trg = gaussian_mixture(n, d, 32, seed=seed + 1, center_box=50.0, spread=1.0)
    design = DesignConfig(
        n_src_grp=max(8, int(np.sqrt(n))), n_trg_grp=max(8, int(np.sqrt(n))), blk=64
    )
    plan = ExecutionPlan(
        pipeline_kind="oneshot_two_set",
        source_set="qSet",
        target_set="tSet",
        source_size=n,
        target_size=n,
        dim=d,
        metric_name="Unweighted L2",
        weight_set=None,
        select=SelectSpec(kind="count", value=float(k), scope="smallest"),
        update_targets=(),
        max_iter=None,
        exit_on_status=False,
        status_var=None,
    )
    config = RunConfig(design=design, seed=seed, thread_count=threads)
    result = run_knn_join(plan, src, trg, config)
    t0 = time.perf_counter()
    naive_counters = CounterSet()
    o_ids, _ = knn_topk(src.values, trg.values, plan.metric_spec(), k, naive_counters)
    naive_time = time.perf_counter() - t0
    ours = np.sort(result.outputs["topk"].ids, axis=1)
    exact = bool(np.array_equal(ours, np.sort(o_ids, axis=1)))
    return result, naive_counters.point_distances, naive_time, exact, {"n": n, "d": d, "k": k}


def _bench_nbody(scale: float, seed: int, threads: int):
    n = max(200, int(16384 * scale))
    d = 3
    steps = 5
    points = gaussian_mixture(n, d, 24, seed=seed, center_box=20.0, spread=1.0)
    radius = radius_for_mean_neighbors(points.values, 50, seed=seed + 1)
    design = DesignConfig(n_src_grp=max(8, int(np.sqrt(n))), n_trg_grp=1, blk=64)
    plan = ExecutionPlan(
        pipeline_kind="iterative_self_set",
        source_set="pSet",
        target_set="pSet",
        source_size=n,
        target_size=n,
        dim=d,
        metric_name="Unweighted L2",
        weight_set=None,
        select=SelectSpec(kind="radius", value=radius, scope="smallest"),
        update_targets=("pSet",),
        max_iter=steps,
        exit_on_status=False,
        status_var=None,
    )
    config = RunConfig(design=design, seed=seed, thread_count=threads, dt=1e-3)
    result = run_nbody(plan, points, config)
    t0 = time.perf_counter()
    naive_counters = CounterSet()
    exact = True
    for step, lists in enumerate(result.outputs["neighbors"], start=1):
        posn = result.outputs["trajectories"][step - 1]
        want = radius_neighbors(posn, plan.metric_spec(), radius, naive_counters)
        for i in range(n):
            if not np.array_equal(lists[i], want[i]):
                exact = False
                break
    naive_time = time.perf_counter() - t0
    return result, naive_counters.point_distances, naive_time, exact, {
        "n": n,
        "d": d,
        "radius": radius,
        "steps": steps,
    }


def cmd_bench(args) -> int:
    if args.scale <= 0:
        raise RangeError("--scale must be positive")
    threads = args.threads
    runner = {"kmeans": _bench_kmeans, "knn": _bench_knn, "nbody": _bench_nbody}[args.suite]
    result, naive_dists, naive_time, exact, meta = runner(args.scale, args.seed, threads)
    gti_dists = result.counters.point_distances
    reduction = 1.0 - gti_dists / naive_dists if naive_dists else 0.0
    ratio = naive_time / result.wall_time_s if result.wall_time_s > 0 else float("inf")

    header = f"{'suite':<8}{'n':>9}{'iters':>7}{'naive_dists':>14}{'gti_dists':>12}{'saving':>9}{'t_naive':>9}{'t_gti':>8}{'ratio':>7}{'exact':>7}"
    row = (
        f"{args.suite:<8}{meta['n']:>9}{result.iterations:>7}{naive_dists:>14}"
        f"{gti_dists:>12}{reduction:>9.3f}{naive_time:>9.2f}{result.wall_time_s:>8.2f}"
        f"{ratio:>7.2f}{str(exact):>7}"
    )
    print(header)
    print(row)

    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "suite": args.suite,
        "scale": args.scale,
        "seed": args.seed,
        "meta": meta,
        "iterations": result.iterations,
        "naive_point_distances": naive_dists,
        "gti_point_distances": gti_dists,
        "distance_reduction": reduction,
        "measured_saving_mean": result.measured_saving_mean,
        "per_iteration": [s.to_json_dict() for s in result.per_iteration],
        "exact": exact,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if exact else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="accd", description=__doc__)
    ap.add_argument("--version", action="version", version=f"accd {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="parse, validate, and lower a .ddsl file")
    p.add_argument("file")
    p.add_argument("--emit", choices=("ast", "plan", "text"), default="plan")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("run", help="execute a .ddsl plan over CSV datasets")
    p.add_argument("file")
    p.add_argument("--src", required=True, help="source dataset CSV")
    p.add_argument("--trg", help="target dataset CSV (two-set pipelines)")
    p.add_argument("--weights", help="weight vector CSV for weighted metrics")
    p.add_argument("--design", help="JSON file with design config fields")
    p.add_argument("--src-groups", type=int, default=64)
    p.add_argument("--trg-groups", type=int, default=8)
    p.add_argument("--blk", type=int, default=64)
    p.add_argument("--oracle", choices=("off", "shadow"), default="off")
    p.add_argument("--layout", choices=("on", "off"), default="on")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=_thread_default())
    p.add_argument("--report", help="write the run report JSON here")
    p.add_argument("--out", help="write pipeline outputs CSV here")
    p.add_argument("--allow-dim-from-data", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("explore", help="search the design space for a problem spec")
    p.add_argument("--problem", required=True, help="JSON file with problem fields")
    p.add_argument("--platform", default="default", help="platform file or 'default'")
    p.add_argument("--domains", help="JSON file with per-parameter domains")
    p.add_argument("--ga", help="JSON file with GA parameters")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("bench", help="synthetic benchmark vs the naive oracle")
    p.add_argument("--suite", choices=("kmeans", "knn", "nbody"), required=True)
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=_thread_default())
    p.add_argument("--report", help="write the bench JSON here")
    p.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _DiagnosticsFailed:
        return 1
    except _DIAG_EXIT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OracleMismatchError as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        if exc.detail is not None:
            print(json.dumps(exc.detail), file=sys.stderr)
        return 2
    except (OSError, FormatError, AccdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
