"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from accd import oracles  # noqa: E402
from accd.metrics import MetricSpec  # noqa: E402

L1 = MetricSpec.from_name("Unweighted L1")
L2 = MetricSpec.from_name("Unweighted L2")


def _tiny_inputs(name: str, seed: int = 3):
    w = workloads.get(name, tiny=True)
    return w, workloads.make_inputs(w, seed)


def test_knn_reference_equals_oracle():
    _, (src, trg) = _tiny_inputs("knn_clustered")
    ids, dists = reference.knn(src, trg, 50, exact=True)
    want_ids, want_d = oracles.knn_topk(src, trg, L2, 50)
    assert np.array_equal(ids, want_ids)
    assert np.array_equal(dists, want_d)


def test_radius_reference_equals_oracle():
    _, (pos,) = _tiny_inputs("nbody_radius")
    pi, pj = reference.radius_pairs(pos, 1.5, exact=True)
    want = oracles.radius_neighbors(pos, L2, 1.5)
    offsets = np.searchsorted(pi, np.arange(pos.shape[0] + 1))
    for i, nbrs in enumerate(want):
        assert np.array_equal(pj[offsets[i] : offsets[i + 1]], nbrs)


def test_kmeans_reference_equals_oracle():
    w, (points,) = _tiny_inputs("kmeans_l1")
    init = workloads.initial_centers(points, w.clusters)
    assign, centers, iters = reference.kmeans_l1(points, init, w.iter_cap, exact=True)
    history, want_centers, want_iters = oracles.lloyd_kmeans(points, init, L1, w.iter_cap)
    assert iters == want_iters
    assert np.array_equal(assign, history[-1])
    assert np.array_equal(centers, want_centers)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_workload_has_no_failures_and_prints_units(name, trace, capsys):
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "0.1",
                     "--trace", trace, "--tiny"])
    out = capsys.readouterr().out.strip().splitlines()
    line = json.loads(out[-1])
    assert code == 0
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 3
    units = run.PER_LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    assert set(line["metrics"]) == set(units)
    for metric, unit in units.items():
        assert line["metrics"][metric]["unit"] == unit
        assert any(ln.split()[1:2] == [metric] and ln.split()[3] == unit for ln in out)
    assert any(ln.split()[1] == "error_rate" and float(ln.split()[2]) == 0.0 for ln in out)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[key]} == units


def _knn_case():
    w, inputs = _tiny_inputs("knn_uniform")
    ref = reference.knn(*inputs, 50, exact=True)
    return w, (ref[0].copy(), ref[1].copy()), ref


def test_knn_check_accepts_the_reference():
    w, answer, ref = _knn_case()
    assert workloads.answer_problems(w, answer, ref) == []


@pytest.mark.parametrize("swap", ["within_row", "across_rows"])
def test_swapped_neighbour_ids_are_caught(swap):
    w, answer, ref = _knn_case()
    ids = answer[0]
    if swap == "within_row":
        ids[0, [0, 1]] = ids[0, [1, 0]]
    else:
        ids[0, 0], ids[1, 0] = ids[1, 0], ids[0, 0]
    assert workloads.answer_problems(w, answer, ref)


def test_corrupted_output_counts_as_a_failed_call(monkeypatch, capsys):
    real = workloads.answer_of

    def corrupted(result):
        ids, dists = real(result)
        ids = ids.copy()
        ids[0, 0], ids[1, 0] = ids[1, 0], ids[0, 0]
        return ids, dists

    monkeypatch.setattr(workloads, "answer_of", corrupted)
    code = run.main(["--workload", "knn_uniform", "--seed", "5", "--seconds", "0.1",
                     "--trace", "1", "--tiny"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not line["correct"] and line["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "knn_uniform", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
