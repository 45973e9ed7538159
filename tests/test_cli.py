"""``accd`` subcommands end to end through ``cli.main``: exit codes 0, 1
and 2, run and explore reports that validate against their schemas, and
bench runs of the samples checked by the shadow oracle, whose report is a
run report with a ``bench`` block."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from referencing import Registry, Resource

import accd
from accd import cli, oracles, pipelines
from accd.ddsl import lower, parse, validate

from conftest import status_mode

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
SCHEMAS = Path(accd.__file__).parent / "schemas"
RESOURCES = Path(accd.__file__).parent / "resources"
REPORT_SCHEMA = json.loads((SCHEMAS / "run_report.schema.json").read_text())
EXPLORE_SCHEMA = json.loads((SCHEMAS / "explorer_output.schema.json").read_text())
PLAN_SCHEMA = json.loads((SCHEMAS / "plan.schema.json").read_text())
# the run report refers to the one plan schema by its id
REGISTRY = Registry().with_resource(PLAN_SCHEMA["$id"], Resource.from_contents(PLAN_SCHEMA))
SMALL_PROBLEM = {"src_size": 2000, "trg_size": 2000, "d": 24, "n_iteration": 1}
SMALL_DESIGN = ["--src-groups", "8", "--trg-groups", "3"]


def _csv(path: Path, values: np.ndarray) -> str:
    np.savetxt(path, values, delimiter=",", fmt="%.17g")
    return str(path)


def _blobs(n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-4.0, 4.0, size=(3, d))
    return centers[rng.integers(0, 3, size=n)] + rng.normal(size=(n, d))


def _validate(payload, schema) -> None:
    jsonschema.Draft202012Validator(schema, registry=REGISTRY).validate(payload)


def _run_args(tmp_path: Path, sample: str) -> list[str]:
    """``run`` arguments for a sample on small CSVs in ``tmp_path``."""
    d = {"kmeans.ddsl": 20, "knn_join.ddsl": 24, "nbody.ddsl": 3}[sample]
    args = ["run", str(SAMPLES / sample), "--src", _csv(tmp_path / "src.csv", _blobs(150, d, 1))]
    if sample == "kmeans.ddsl":
        args += ["--trg", _csv(tmp_path / "init.csv", _blobs(150, d, 1)[:6])]
    elif sample == "knn_join.ddsl":
        args += ["--trg", _csv(tmp_path / "trg.csv", _blobs(120, d, 2))]
    return args + SMALL_DESIGN


@pytest.mark.parametrize("sample", ["kmeans.ddsl", "knn_join.ddsl", "nbody.ddsl"])
def test_compile_samples(sample, capsys):
    assert cli.main(["compile", str(SAMPLES / sample)]) == 0
    _validate(json.loads(capsys.readouterr().out), PLAN_SCHEMA)


# a count k-means would not read and a status exit n-body would not follow:
# lowering rejects both
@pytest.mark.parametrize("command", ["compile", "bench"])
@pytest.mark.parametrize(
    "sample, edit, message",
    [
        ("kmeans.ddsl", lambda t: t.replace("DVar K int 1;", "DVar K int 10;"), "nearest centre"),
        ("nbody.ddsl", status_mode, "status exit is k-means-only"),
    ],
)
def test_rejected_program_exits_1(command, sample, edit, message, tmp_path, capsys):
    text = (SAMPLES / sample).read_text()
    edited = tmp_path / sample
    edited.write_text(edit(text))
    assert edited.read_text() != text
    assert cli.main([command, str(edited)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("sample", ["kmeans.ddsl", "knn_join.ddsl", "nbody.ddsl"])
def test_run_sample_shadow_report_validates(sample, tmp_path):
    report = tmp_path / "report.json"
    argv = _run_args(tmp_path, sample) + [
        "--allow-dim-from-data",
        "--oracle",
        "shadow",
        "--report",
        str(report),
    ]
    assert cli.main(argv) == 0
    payload = json.loads(report.read_text())
    _validate(payload, REPORT_SCHEMA)
    assert payload["config"]["oracle_mode"] == "shadow"
    assert payload["config"]["design"] == {"n_src_grp": 8, "n_trg_grp": 3}
    assert "bench" not in payload and payload["oracle_s"] > 0
    # the layout is the grouped set's [start, stop) per group: the 3 groups
    # of the 6 centres or the 120 targets, or the 8 of the 150 particles
    grouped, z = {"kmeans.ddsl": (6, 3), "knn_join.ddsl": (120, 3), "nbody.ddsl": (150, 8)}[sample]
    slices = payload["layout"]["group_slices"]
    assert len(slices) == z and sum(stop - start for start, stop in slices) == grouped
    if sample == "knn_join.ddsl":
        # the landmark cut prunes nothing on these blobs: the 150 source
        # points are swept as one batch
        (stats,) = payload["per_iteration"]
        assert stats["pruned_pairs"] == 0 and stats["source_batches"] == 1


# Runs each argv of the JSON list in argv[1] through cli.main, in order,
# and prints whether scipy is loaded after each.
SCIPY_PROBE = """
import json, sys
from accd import cli
loaded = []
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    loaded.append("scipy" in sys.modules)
print(json.dumps(loaded))
"""


def test_compile_and_an_l2_run_do_not_import_scipy(tmp_path):
    # only an L1 tile needs scipy's cdist: a k-means run, last, loads it
    runs = [["compile", str(SAMPLES / "knn_join.ddsl")]]
    for sample in ("knn_join.ddsl", "kmeans.ddsl"):
        (tmp_path / sample).mkdir()
        runs.append(_run_args(tmp_path / sample, sample) + [
            "--allow-dim-from-data", "--oracle", "shadow", "--report", str(tmp_path / "r.json")
        ])
    path = [str(Path(accd.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(runs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [False, False, True]


NBODY_TEXT = (SAMPLES / "nbody.ddsl").read_text()


# numeric literals that escaped as raw Python exceptions, lowered "1٣" as
# 13, or ran n-body with an infinite radius
@pytest.mark.parametrize("command", ["compile", "bench"])
@pytest.mark.parametrize(
    "text, where, message",
    [
        ("DVar K int ²;", "1:12", "found '²'"),
        ("DVar K int 1٣;", "1:13", "found '٣'"),
        ("DVar R double " + "9" * 400 + ";", "1:1", "overflows float64"),
        ("DVar K int " + "9" * 5001 + ";", "1:12", "found 5001 digits"),
        ("DVar d int 1e999;\nDSet s float 4 d;", "1:1", "non-integer literal"),
        (NBODY_TEXT.replace("DVar R float 1.5;", "DVar R double 1e999;"), "1:1", "overflows float64"),
    ],
    ids=["superscript-digit", "arabic-indic-digit", "400-digit-double", "5001-digit-int",
         "infinite-int-dim", "infinite-radius"],
)
def test_bad_numeric_literal_exits_1_at_its_position(command, text, where, message, tmp_path, capsys):
    path = tmp_path / "bad.ddsl"
    path.write_text(text, encoding="utf-8")
    assert cli.main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:{where}: error: ") and message in err
    assert err.count(where) == 1


def test_syntax_error_exits_1(tmp_path):
    bad = tmp_path / "bad.ddsl"
    bad.write_text("DVar K int 10 10;\n")
    assert cli.main(["compile", str(bad)]) == 1


def test_size_mismatch_without_rebind_exits_1(tmp_path):
    assert cli.main(_run_args(tmp_path, "knn_join.ddsl")) == 1


@pytest.mark.parametrize("rebind", [False, True])
def test_kmeans_initial_centres_row_count_is_checked(rebind, tmp_path, capsys):
    # 5 initial centres against the sample's csize 200: a range error, or
    # with the flag a plan of 5 clusters whose counters cover 1400 x 5 pairs
    # per iteration
    report = tmp_path / "r.json"
    argv = [
        "run", str(SAMPLES / "kmeans.ddsl"),
        "--src", _csv(tmp_path / "src.csv", _blobs(1400, 20, 1)),
        "--trg", _csv(tmp_path / "init.csv", _blobs(5, 20, 2)),
        "--oracle", "shadow", "--report", str(report), *SMALL_DESIGN,
    ]
    if not rebind:
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "target dataset has 5 rows, plan declares 200" in err
        assert not report.exists()
        return
    assert cli.main(argv + ["--allow-dim-from-data"]) == 0
    payload = json.loads(report.read_text())
    assert (payload["plan"]["source_size"], payload["plan"]["target_size"]) == (1400, 5)
    c = payload["counters"]
    pairs = c["point_distances"] + c["pruned_pairs"] + c["all_inside_pairs"] + c["reused_pairs"]
    assert pairs == 1400 * 5 * payload["iterations"]


def test_nbody_with_target_set_exits_1(tmp_path):
    argv = _run_args(tmp_path, "nbody.ddsl")
    argv += ["--trg", argv[3], "--allow-dim-from-data"]
    assert cli.main(argv) == 1


@pytest.mark.parametrize("oracle", ["off", "shadow"])
@pytest.mark.parametrize(
    "sample, huge",
    [("kmeans.ddsl", 1e308), ("knn_join.ddsl", 1e200), ("nbody.ddsl", 1e200)],
)
def test_input_whose_distances_overflow_exits_1(sample, huge, oracle, tmp_path, capsys):
    # one huge coordinate among the blobs: its squared (L2) or summed (L1)
    # differences overflow, which is a range error, not a traceback
    argv = _run_args(tmp_path, sample)
    values = np.loadtxt(argv[3], delimiter=",")
    values[7, 1] = huge
    _csv(Path(argv[3]), values)
    assert cli.main(argv + ["--allow-dim-from-data", "--oracle", oracle]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _recorded_runs(monkeypatch) -> list:
    """Patch ``cli.run_plan`` to keep each ``RunResult`` it returns."""
    runs = []

    def recording(*args, **kwargs):
        runs.append(pipelines.run_plan(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "run_plan", recording)
    return runs


def test_nbody_out_counts_equal_the_oracle(monkeypatch, tmp_path):
    # the output CSV's neighbor_count, step by step, is the oracle's count
    # at that step's positions
    runs = _recorded_runs(monkeypatch)
    out = tmp_path / "out.csv"
    argv = _run_args(tmp_path, "nbody.ddsl") + ["--allow-dim-from-data", "--out", str(out)]
    assert cli.main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0].endswith(",neighbor_count")
    rows = np.array([[int(f) for f in (*ln.split(",")[:2], ln.split(",")[-1])] for ln in lines[1:]])
    (result,) = runs
    radius = 1.5  # the sample's R
    for step, pos in enumerate(result.outputs["trajectories"][:-1], start=1):
        at = rows[rows[:, 0] == step]
        assert np.array_equal(at[:, 1], np.arange(150))
        want = oracles.radius_neighbors(pos, pipelines.MetricSpec(), radius)
        assert np.array_equal(at[:, 2], np.diff(want.offsets))
        assert want.ids.size > 0
    assert rows.shape[0] == 150 * result.iterations


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("sample", ["kmeans.ddsl", "knn_join.ddsl", "nbody.ddsl"])
def test_out_csv_reads_back_as_the_run_outputs_bitwise(monkeypatch, tmp_path, sample):
    # every number in the output CSV is a plain decimal that parses back to
    # the run's own value, bit for bit; the k-means file is ids alone
    runs = _recorded_runs(monkeypatch)
    out = tmp_path / "out.csv"
    argv = _run_args(tmp_path, sample) + ["--allow-dim-from-data", "--out", str(out)]
    assert cli.main(argv) == 0
    (result,) = runs
    if sample == "kmeans.ddsl":
        assign = result.outputs["assignments"].tolist()
        want = "".join(f"{i},{c}\n" for i, c in enumerate(assign))
        assert out.read_text() == "point_id,cluster\n" + want
        return
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    if sample == "knn_join.ddsl":
        topk = result.outputs["topk"]
        m, k = topk.ids.shape
        assert np.array_equal(table[:, :2], np.argwhere(np.ones((m, k), dtype=bool)))
        assert np.array_equal(table[:, 2], topk.ids.ravel())
        assert _same_bits(table[:, 3], topk.distances.ravel())
    else:
        steps = result.outputs["trajectories"][:-1]
        assert _same_bits(table[:, 2:-1], np.concatenate(steps))
        step_point = np.argwhere(np.ones((len(steps), 150), dtype=bool)) + [1, 0]
        assert np.array_equal(table[:, :2], step_point)


def test_missing_csv_exits_2(tmp_path):
    argv = ["run", str(SAMPLES / "nbody.ddsl"), "--src", str(tmp_path / "absent.csv")]
    assert cli.main(argv + ["--allow-dim-from-data"]) == 2


def test_malformed_csv_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0,3.0\n4.0,oops,6.0\n")
    argv = ["run", str(SAMPLES / "nbody.ddsl"), "--src", str(bad)]
    assert cli.main(argv + ["--allow-dim-from-data"]) == 2


def _json_file(path: Path, payload) -> str:
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


SMALL_DOMAINS = {
    "n_src_grp": [8, 16],
    "n_trg_grp": [2, 4],
    "blk": [128, 256],
    "simd": [1, 2],
    "unroll": [1, 2],
}


@pytest.mark.parametrize("domains", [None, SMALL_DOMAINS], ids=["default", "file"])
def test_explore_small_problem_validates(domains, tmp_path, capsys):
    argv = ["explore", "--problem", _json_file(tmp_path / "p.json", SMALL_PROBLEM)]
    if domains is not None:
        argv += ["--domains", _json_file(tmp_path / "d.json", domains)]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, EXPLORE_SCHEMA)
    assert payload["schema_version"] == 2
    if domains is not None:
        # every config of the grid is scored, and the best is one of them
        assert payload["evaluations"] == 2**5
        for name, values in domains.items():
            assert payload["best_config"][name] in values


def test_explore_infeasible_problem_exits_1_with_nearest_miss(tmp_path, capsys):
    knn = {"src_size": 5341, "trg_size": 5341, "d": 24, "n_iteration": 1}
    assert cli.main(["explore", "--problem", _json_file(tmp_path / "p.json", knn)]) == 1
    assert "nearest miss" in capsys.readouterr().err


# (flag, file contents) for config files that are not valid JSON, are not
# an object, name a field the config does not have, give a design or size
# value that is not an integer, or an alpha that is not finite, or a size
# or group count too large for the models' float arithmetic, a group count
# of 0, or an empty domain
BAD_CONFIGS = [
    ("--problem", '{"src_size": 2000,'),
    ("--problem", {**SMALL_PROBLEM, "bogus": 1}),
    ("--problem", {"src_size": 2000}),
    ("--domains", "[1, 2"),
    ("--domains", {"blk": [16]}),
    ("--domains", {"n_src_grp": [8], "n_trg_grp": [2], "blk": [16.5], "simd": [1], "unroll": [1]}),
    ("--problem", {**SMALL_PROBLEM, "src_size": 1e300}),
    ("--problem", {**SMALL_PROBLEM, "src_size": 2.5}),
    ("--problem", {**SMALL_PROBLEM, "src_size": True}),
    ("--problem", {**SMALL_PROBLEM, "alpha": float("nan")}),
    ("--problem", {"src_size": 10**300, "trg_size": 2000, "d": 24, "n_iteration": 1}),
    ("--domains", {**SMALL_DOMAINS, "n_src_grp": [10**300]}),
    ("--domains", {**SMALL_DOMAINS, "n_src_grp": [0]}),
    ("--domains", {**SMALL_DOMAINS, "n_src_grp": []}),
]


@pytest.mark.parametrize("flag,payload", BAD_CONFIGS)
def test_explore_bad_config_file_exits_2(flag, payload, tmp_path, capsys):
    argv = ["explore", flag, _json_file(tmp_path / "bad.json", payload)]
    if flag != "--problem":
        argv += ["--problem", _json_file(tmp_path / "p.json", SMALL_PROBLEM)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# (file, text, its non-numeric replacement, the "file:line: key" the error names)
NON_NUMERIC = [
    ("bad.platform", "= 2.0e8", "= fast", "bad.platform:3: frequency_hz"),
    ("table.csv", "16,1,1,1,1,158", "16,1,1,1,x,158", "table.csv:2: dsp"),
]


@pytest.mark.parametrize("edited,old,new,where", NON_NUMERIC, ids=["platform", "resource_table"])
def test_explore_non_numeric_platform_value_exits_2(edited, old, new, where, tmp_path, capsys):
    files = {
        "bad.platform": (RESOURCES / "synthetic.platform").read_text().replace(
            "synthetic_resource_table.csv", "table.csv"
        ),
        "table.csv": (RESOURCES / "synthetic_resource_table.csv").read_text(),
    }
    assert old in files[edited]
    files[edited] = files[edited].replace(old, new, 1)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = ["explore", "--problem", _json_file(tmp_path / "p.json", SMALL_PROBLEM)]
    assert cli.main(argv + ["--platform", str(tmp_path / "bad.platform")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert where in err


# -- bench ------------------------------------------------------------------

BENCH_SCALES = {"kmeans.ddsl": 0.1, "knn_join.ddsl": 0.05, "nbody.ddsl": 0.1}


def _bench(sample, *extra) -> int:
    return cli.main(["bench", str(sample), *extra])


@pytest.mark.parametrize("sample", sorted(BENCH_SCALES))
def test_bench_sample_is_exact_and_accounts_every_pair(sample, tmp_path, capsys):
    report = tmp_path / "bench.json"
    scale = BENCH_SCALES[sample]
    assert _bench(SAMPLES / sample, "--scale", str(scale), "--report", str(report)) == 0
    payload = json.loads(report.read_text())
    _validate(payload, REPORT_SCHEMA)
    # a run report whose only extra key is its bench block
    assert sorted(payload) == sorted(REPORT_SCHEMA["required"] + ["bench"])
    assert payload["bench"] == {"program": str(SAMPLES / sample), "scale": scale}
    assert payload["config"]["oracle_mode"] == "shadow" and payload["oracle_s"] > 0
    plan, c = payload["plan"], payload["counters"]
    assert payload["pipeline_kind"] == plan["pipeline_kind"]
    pairs = plan["source_size"] * plan["target_size"] * payload["iterations"]
    naive = c["point_distances"] + c["pruned_pairs"] + c["all_inside_pairs"] + c["reused_pairs"]
    assert naive == pairs
    assert 0 < c["point_distances"] <= pairs
    # the run's bound work: its iterations', plus the point-to-landmark
    # offsets of the groups the iterative pipelines build before iteration
    # 1, one per centre (k-means) or per point (n-body)
    before = {"iterative_two_set": plan["target_size"], "iterative_self_set": plan["source_size"]}
    in_iterations = sum(s["bound_computations"] for s in payload["per_iteration"])
    assert c["bound_computations"] == in_iterations + before.get(plan["pipeline_kind"], 0)
    # the printed row is the report's numbers
    header, row = capsys.readouterr().out.splitlines()[:2]
    cells = dict(zip(header.split(), row.split()))
    assert cells["program"] == Path(sample).stem and cells["exact"] == "True"
    assert (int(cells["n"]), int(cells["m"])) == (plan["source_size"], plan["target_size"])
    assert int(cells["iters"]) == payload["iterations"]
    assert (int(cells["naive_dists"]), int(cells["gti_dists"])) == (pairs, c["point_distances"])
    assert cells["saving"] == f"{payload['measured_saving_mean']:.3f}"
    assert cells["t_naive"] == f"{payload['oracle_s']:.2f}"


@pytest.mark.parametrize("report", [False, True])
def test_bench_stdout_is_its_table_alone(report, tmp_path, capsys):
    # the report goes to --report only; stdout is the header and the row
    path = tmp_path / "bench.json"
    extra = ["--report", str(path)] if report else []
    assert _bench(SAMPLES / "nbody.ddsl", "--scale", "0.02", *extra) == 0
    out = capsys.readouterr().out
    header, row = out.splitlines()
    assert out == f"{header}\n{row}\n"
    assert header.split()[0] == "program" and row.split()[0] == "nbody"
    assert path.exists() == report
    if report:
        assert cli._bench_table(json.loads(path.read_text())) == f"{header}\n{row}"


def test_bench_oracle_mismatch_exits_2(monkeypatch, capsys):
    real = pipelines.knn_topk

    def wrong(*args, **kwargs):
        ids, dists = real(*args, **kwargs)
        ids[0, 0] = -1
        return ids, dists

    monkeypatch.setattr(pipelines, "knn_topk", wrong)
    assert _bench(SAMPLES / "knn_join.ddsl", "--scale", "0.02") == 2
    assert "oracle mismatch" in capsys.readouterr().err


def test_bench_syntax_error_exits_1(tmp_path):
    bad = tmp_path / "bad.ddsl"
    bad.write_text("DVar K int 10 10;\n")
    assert _bench(bad) == 1


def test_bench_scale_must_be_positive():
    for scale in ("0", "-1", "nan", "inf"):
        assert _bench(SAMPLES / "nbody.ddsl", "--scale", scale) == 1, scale


def test_bench_scale_beyond_the_largest_array_is_a_range_error(capsys):
    # a 10^34-row set: rejected before anything is allocated
    assert _bench(SAMPLES / "knn_join.ddsl", "--scale", "1e30") == 1
    assert "--scale 1e+30" in capsys.readouterr().err


def test_bench_set_size_beyond_float64_is_a_range_error(tmp_path, capsys):
    # a 400-digit target set size, written as a literal where the sample
    # names tsize: it compiles, but has no float64 value to scale
    text = (SAMPLES / "knn_join.ddsl").read_text().replace("DVar tsize int 10000;\n", "")
    huge = tmp_path / "huge.ddsl"
    huge.write_text(text.replace("tsize", "9" * 400))
    assert cli.main(["compile", str(huge)]) == 0
    capsys.readouterr()
    assert _bench(huge, "--scale", "0.5") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "400-digit size is beyond float64 range" in err


class _Generated(Exception):
    """Raised by a stub in place of generating a bench set."""


@pytest.mark.parametrize("sample", sorted(BENCH_SCALES))
def test_bench_scale_limit_is_the_largest_float64_array(monkeypatch, capsys, sample):
    # a scale just under the limit goes on to generate its sets (a stub
    # that allocates nothing); just over, it is a range error
    checked, diags = validate(parse((SAMPLES / sample).read_text()))
    assert checked is not None, diags
    plan = lower(checked)
    rows = np.iinfo(np.intp).max // (8 * plan.dim)
    at = rows / max(plan.source_size, plan.target_size)
    made = []

    def stub(n, d, *args, **kwargs):
        made.append((n, d))
        raise _Generated

    monkeypatch.setattr(cli, "gaussian_mixture", stub)
    under = at * (1 - 1e-6)
    with pytest.raises(_Generated):
        _bench(SAMPLES / sample, "--scale", repr(under))
    assert made == [(int(plan.source_size * under), plan.dim)]
    assert 0 < rows - max(int(plan.source_size * under), int(plan.target_size * under))
    assert _bench(SAMPLES / sample, "--scale", repr(at * (1 + 1e-6))) == 1
    assert "larger than the largest float64 array" in capsys.readouterr().err
    assert len(made) == 1


def _weighted_knn(tmp_path: Path) -> Path:
    """The knn sample with a weighted L2 metric over the weight set wMat."""
    text = (SAMPLES / "knn_join.ddsl").read_text()
    text = text.replace("DSet knnMat", "DSet wMat float 1 D;\nDSet knnMat")
    weighted = tmp_path / "weighted.ddsl"
    weighted.write_text(text.replace('"Unweighted L2", 0', '"Weighted L2", wMat'))
    return weighted


def test_bench_rejects_a_weighted_program(tmp_path, capsys):
    assert _bench(_weighted_knn(tmp_path), "--scale", "0.02") == 1
    assert "weight set 'wMat'" in capsys.readouterr().err


def test_run_weighted_program_rejects_negative_weights(tmp_path, capsys):
    # valid weights run under the shadow oracle; a negative weight is a
    # range error on the diagnostics path, exit 1 and no traceback
    argv = _run_args(tmp_path, "knn_join.ddsl")
    argv[1] = str(_weighted_knn(tmp_path))
    argv += ["--allow-dim-from-data", "--oracle", "shadow", "--weights"]
    weights = np.random.default_rng(3).uniform(0.5, 2.0, size=24)
    assert cli.main(argv + [_csv(tmp_path / "w.csv", weights)]) == 0
    capsys.readouterr()
    weights[5] = -1.0
    assert cli.main(argv + [_csv(tmp_path / "bad_w.csv", weights)]) == 1
    err = capsys.readouterr().err
    assert err == "error: weights must be finite and nonnegative\n"
