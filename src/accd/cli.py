"""Command-line entry point.

Subcommands: compile (parse/validate/lower a .ddsl file), run (execute a
lowered plan over CSV datasets), explore (score every design of a finite
space with the analytical model and print the best feasible one), bench
(run a .ddsl program on seeded synthetic data, checked by the shadow
oracle, and compare its distance work and time with the oracle's brute
force). The run report is schema v4, the bench JSON v3 and the explore
output v2; each has its JSON Schema under ``schemas/``. The plan that
compile prints, and that the run report and the bench JSON carry, has one
closed schema, ``schemas/plan.schema.json``, which both reference.
Exit codes: 0 success, 1 diagnostics or infeasibility, 2 runtime error
(IO, format, config, oracle mismatch).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import Dataset, load_csv
from .ddsl import lower, parse, pretty_print, validate
from .ddsl.lowering import ExecutionPlan
from .errors import (
    AccdError,
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
    ProblemSpec,
    default_domains,
    default_platform,
    explore,
    parse_platform_file,
)
from .pipelines import RunConfig, RunResult, run_plan
from .synth import gaussian_mixture

REPORT_SCHEMA_VERSION = 4
BENCH_SCHEMA_VERSION = 3
EXPLORE_SCHEMA_VERSION = 2

_DIAG_EXIT = (
    DdslSyntaxError,
    UnsupportedProgramError,
    InvalidQueryError,
    RangeError,
    NoFeasibleConfigError,
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
    value through ``field``; a field ``cls`` rejects is a ``ConfigError``
    naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected a JSON object of {cls.__name__} fields")
    try:
        return cls(**{k: field(v) for k, v in payload.items()})
    except (TypeError, RangeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _design_from_args(args) -> DesignConfig:
    if args.design:
        return _load_config(args.design, DesignConfig)
    return DesignConfig(n_src_grp=args.src_groups, n_trg_grp=args.trg_groups)


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
            "oracle_mode": config.oracle_mode,
            "thread_count": config.thread_count,
        },
        "iterations": result.iterations,
        "per_iteration": [s.to_json_dict() for s in result.per_iteration],
        "counters": result.counters.as_dict(),
        "measured_saving_mean": result.measured_saving_mean,
        "wall_time_s": result.wall_time_s,
        "outputs_path": str(outputs_path) if outputs_path else None,
        "layout": result.layout.to_json_dict(),
    }


def _emit(payload: dict, path) -> None:
    """Write ``payload`` as JSON to ``path``, or print it when no path is given."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_outputs(result: RunResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if result.pipeline_kind == "iterative_two_set":
            fh.write("point_id,cluster\n")
            for i, c in enumerate(result.outputs["assignments"]):
                fh.write(f"{i},{int(c)}\n")
        elif result.pipeline_kind == "oneshot_two_set":
            topk = result.outputs["topk"]
            fh.write("point_id,rank,neighbor_id,distance\n")
            # Python floats: their repr is a bare number that round-trips
            for i, (ids, dists) in enumerate(zip(topk.ids.tolist(), topk.distances.tolist())):
                for r, (j, dist) in enumerate(zip(ids, dists)):
                    fh.write(f"{i},{r},{j},{dist!r}\n")
        else:
            fh.write("step,point_id," + ",".join(
                f"x{j}" for j in range(result.outputs["trajectories"][0].shape[1])
            ) + ",neighbor_count\n")
            for step, lists in enumerate(result.outputs["neighbors"], start=1):
                posn = result.outputs["trajectories"][step - 1].tolist()
                for i, count in enumerate(np.diff(lists.offsets).tolist()):
                    coords = ",".join(repr(v) for v in posn[i])
                    fh.write(f"{step},{i},{coords},{count}\n")


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
        oracle_mode=args.oracle,
        thread_count=args.threads,
    )
    result = run_plan(plan, src, trg, config, weights=weights)

    if args.out:
        _write_outputs(result, args.out)
    _emit(_result_report(plan, config, result, args.out), args.report)
    return 0


def _resolve_platform(spec: str, domains: Domains):
    if spec == "default":
        return default_platform(domains)
    return parse_platform_file(spec)


def cmd_explore(args) -> int:
    problem = _load_config(args.problem, ProblemSpec)
    domains = _load_config(args.domains, Domains, tuple) if args.domains else default_domains()
    platform = _resolve_platform(args.platform, domains)
    try:
        result = explore(problem, platform, domains)
    except NoFeasibleConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.nearest_miss is not None:
            print("nearest miss:", json.dumps(exc.nearest_miss, indent=2), file=sys.stderr)
        return 1
    _emit({"schema_version": EXPLORE_SCHEMA_VERSION, **result.to_json_dict()}, None)
    return 0


def _bench_design(plan: ExecutionPlan) -> DesignConfig:
    """Bench group counts: max(8, isqrt(n)) source groups, which only
    n-body uses; target groups max(8, isqrt(m)) for a join, max(2, k // 8)
    for k clusters, 1 for a self-set, which ignores them."""
    n_trg_grp = {
        "oneshot_two_set": max(8, math.isqrt(plan.target_size)),
        "iterative_two_set": max(2, plan.target_size // 8),
        "iterative_self_set": 1,
    }[plan.pipeline_kind]
    n_src_grp = max(8, math.isqrt(plan.source_size))
    return DesignConfig(n_src_grp=n_src_grp, n_trg_grp=n_trg_grp)


def cmd_bench(args) -> int:
    if not (math.isfinite(args.scale) and args.scale > 0):
        raise RangeError("--scale must be finite and positive")
    _, checked = _load_program(args.file)
    plan = lower(checked)
    if plan.weight_set is not None:
        raise UnsupportedProgramError(
            f"{args.file}: bench has no weights for weight set '{plan.weight_set}'"
        )
    plan = dataclasses.replace(
        plan,
        source_size=max(1, int(plan.source_size * args.scale)),
        target_size=max(1, int(plan.target_size * args.scale)),
    )
    for size in (plan.source_size, plan.target_size):
        if size * plan.dim * 8 > np.iinfo(np.intp).max:
            raise RangeError(
                f"--scale {args.scale:g} makes a {size} x {plan.dim} set, "
                "larger than the largest float64 array this platform can index"
            )
    src = gaussian_mixture(plan.source_size, plan.dim, 24, args.seed, center_box=50.0)
    trg = None
    if plan.pipeline_kind == "oneshot_two_set":
        trg = gaussian_mixture(plan.target_size, plan.dim, 24, args.seed + 1, center_box=50.0)
    design = _bench_design(plan)
    config = RunConfig(
        design=design, seed=args.seed, oracle_mode="shadow", thread_count=args.threads
    )
    result = run_plan(plan, src, trg, config)

    # Every pair the run avoided or computed is a distance of the brute
    # force; the oracle's time is that brute force's time.
    c = result.counters
    naive_dists = c.point_distances + c.pruned_pairs + c.all_inside_pairs + c.reused_pairs
    gti_dists = c.point_distances
    reduction = 1.0 - gti_dists / naive_dists if naive_dists else 0.0
    t_naive = result.oracle_s
    t_gti = result.wall_time_s - result.oracle_s
    ratio = t_naive / t_gti if t_gti > 0 else float("inf")

    header = (
        f"{'program':<10}{'n':>9}{'m':>9}{'iters':>7}{'naive_dists':>14}{'gti_dists':>12}"
        f"{'saving':>9}{'t_naive':>9}{'t_gti':>8}{'ratio':>7}{'exact':>7}"
    )
    row = (
        f"{Path(args.file).stem:<10}{plan.source_size:>9}{plan.target_size:>9}"
        f"{result.iterations:>7}{naive_dists:>14}{gti_dists:>12}{reduction:>9.3f}"
        f"{t_naive:>9.2f}{t_gti:>8.2f}{ratio:>7.2f}{'True':>7}"
    )
    print(header)
    print(row)

    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "program": args.file,
        "pipeline_kind": plan.pipeline_kind,
        "scale": args.scale,
        "seed": args.seed,
        "meta": {"plan": plan.to_json_dict(), "design": design.to_json_dict()},
        "iterations": result.iterations,
        "naive_point_distances": naive_dists,
        "gti_point_distances": gti_dists,
        # distances that only feed bounds, such as k-means' point-to-landmark ones
        "bound_computations": c.bound_computations,
        "distance_reduction": reduction,
        "measured_saving_mean": result.measured_saving_mean,
        "per_iteration": [s.to_json_dict() for s in result.per_iteration],
        # a mismatch raised OracleMismatchError before this point
        "exact": True,
    }
    _emit(payload, args.report)
    return 0


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
    p.add_argument("--src-groups", type=int, default=64, help="n-body only: particle groups")
    p.add_argument("--trg-groups", type=int, default=8)
    p.add_argument("--oracle", choices=("off", "shadow"), default="off")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--report", help="write the run report JSON here")
    p.add_argument("--out", help="write pipeline outputs CSV here")
    p.add_argument("--allow-dim-from-data", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "explore", help="score every design of a finite space for a problem spec"
    )
    p.add_argument("--problem", required=True, help="JSON file with problem fields")
    p.add_argument("--platform", default="default", help="platform file or 'default'")
    p.add_argument("--domains", help="JSON file with per-parameter domains")
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser(
        "bench",
        help="run a .ddsl program on seeded synthetic data, checked by the shadow oracle",
    )
    p.add_argument("file")
    p.add_argument("--scale", type=float, default=1.0, help="multiplies every declared set size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
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
