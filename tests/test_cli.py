"""``accd`` subcommands end to end through ``cli.main``: exit codes 0, 1
and 2, and run reports that validate against their schema."""

import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import accd
from accd import cli

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
REPORT_SCHEMA = json.loads(
    (Path(accd.__file__).parent / "schemas" / "run_report.schema.json").read_text()
)
SMALL_DESIGN = ["--src-groups", "8", "--trg-groups", "3", "--blk", "16"]


def _csv(path: Path, values: np.ndarray) -> str:
    np.savetxt(path, values, delimiter=",", fmt="%.17g")
    return str(path)


def _blobs(n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-4.0, 4.0, size=(3, d))
    return centers[rng.integers(0, 3, size=n)] + rng.normal(size=(n, d))


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
    assert json.loads(capsys.readouterr().out)["pipeline_kind"]


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
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["config"]["oracle_mode"] == "shadow"


def test_syntax_error_exits_1(tmp_path):
    bad = tmp_path / "bad.ddsl"
    bad.write_text("DVar K int 10 10;\n")
    assert cli.main(["compile", str(bad)]) == 1


def test_size_mismatch_without_rebind_exits_1(tmp_path):
    assert cli.main(_run_args(tmp_path, "knn_join.ddsl")) == 1


def test_nbody_with_target_set_exits_1(tmp_path):
    argv = _run_args(tmp_path, "nbody.ddsl")
    argv += ["--trg", argv[3], "--allow-dim-from-data"]
    assert cli.main(argv) == 1


def test_missing_csv_exits_2(tmp_path):
    argv = ["run", str(SAMPLES / "nbody.ddsl"), "--src", str(tmp_path / "absent.csv")]
    assert cli.main(argv + ["--allow-dim-from-data"]) == 2


def test_malformed_csv_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0,3.0\n4.0,oops,6.0\n")
    argv = ["run", str(SAMPLES / "nbody.ddsl"), "--src", str(bad)]
    assert cli.main(argv + ["--allow-dim-from-data"]) == 2
