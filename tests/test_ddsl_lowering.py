import re
from collections import Counter

import numpy as np
import pytest

from accd import oracles
from accd.dataset import Dataset
from accd.ddsl import lower, parse, pretty_print, validate
from accd.ddsl.ast import ComputeDist, DistSelect, Iter, SetDecl, VarDecl
from accd.errors import UnsupportedProgramError
from accd.explorer import DesignConfig
from accd.metrics import METRIC_NAMES, MetricSpec
from accd.pipelines import RunConfig, run_plan

from conftest import KMEANS_LISTING, status_mode
from ddsl_fuzz import ILLEGAL, lowerable_program

ONESHOT = "oneshot_two_set"
ITERATIVE = ("iterative_two_set", "iterative_self_set")

KNN_TEXT = """DVar K int 5;
DVar D int 3;
DVar m int 40;
DVar n int 60;
DSet q float m D;
DSet t float n D;
DSet dm float m n;
DSet im int m n;
DSet km int m K;
AccD_Comp_Dist(q, t, dm, im, D, "Unweighted L2", 0);
AccD_Dist_Select(dm, im, K, "smallest", km);
"""

NBODY_TEXT = """DVar R float 0.5;
DVar D int 3;
DVar n int 64;
DSet p float n D;
DSet dm float n n;
DSet im int n n;
DSet nm int n n;
AccD_Iter(7){
    AccD_Comp_Dist(p, p, dm, im, D, "Unweighted L2", 0);
    AccD_Dist_Select(dm, im, R, "smallest", nm);
    AccD_Update(p, nm);
}
"""


def _lower(text):
    checked, diags = validate(parse(text))
    assert not diags, diags
    return lower(checked)


def test_listing_lowers_to_iterative_two_set():
    plan = _lower(KMEANS_LISTING)
    assert plan.pipeline_kind == "iterative_two_set"
    assert plan.select.value == 1
    assert plan.max_iter is None  # status mode: until no assignment changes
    assert (plan.source_size, plan.target_size, plan.dim) == (1400, 200, 20)


def test_body_without_iteration_is_oneshot():
    plan = _lower(KNN_TEXT)
    assert plan.pipeline_kind == "oneshot_two_set"
    assert plan.max_iter is None


def test_self_set_iteration():
    plan = _lower(NBODY_TEXT)
    assert plan.pipeline_kind == "iterative_self_set"
    assert plan.select.value == 0.5
    assert plan.max_iter == 7


def test_kmeans_count_other_than_one_unsupported():
    # k-means assigns each point its one nearest centre
    for count in (2, 10, 199):
        text = KMEANS_LISTING.replace("DVar K int 1;", f"DVar K int {count};")
        checked, diags = validate(parse(text))
        assert not diags, diags
        with pytest.raises(UnsupportedProgramError, match="nearest centre"):
            lower(checked)


def test_status_mode_self_set_unsupported():
    checked, diags = validate(parse(status_mode(NBODY_TEXT)))
    assert not diags, diags
    with pytest.raises(UnsupportedProgramError, match="status exit is k-means-only"):
        lower(checked)


def test_two_compdists_unsupported():
    text = KNN_TEXT + 'AccD_Comp_Dist(t, q, dm, im, D, "Unweighted L2", 0);\n'
    checked, diags = validate(parse(text))
    # shape diagnostics may fire first; craft shapes that pass
    if checked is None:
        text = KNN_TEXT.replace("DVar m int 40;", "DVar m int 60;")
        text = text + 'AccD_Comp_Dist(t, q, dm, im, D, "Unweighted L2", 0);\n'
        checked, diags = validate(parse(text))
    assert checked is not None
    with pytest.raises(UnsupportedProgramError):
        lower(checked)


def test_radius_on_two_set_unsupported():
    text = KNN_TEXT.replace("DVar K int 5;", "DVar K float 1.5;").replace(
        "DSet km int m K;", "DSet km int m n;"
    )
    checked, diags = validate(parse(text))
    assert not diags
    with pytest.raises(UnsupportedProgramError):
        lower(checked)


@pytest.mark.parametrize(
    "decl, want",
    [("DVar R float 0.1;", 0.10000000149011612), ("DVar R double 0.1;", 0.1)],
    ids=["float", "double"],
)
def test_radius_lowers_at_the_precision_of_its_variable(decl, want):
    # a float variable holds a float32, so its radius is the float32
    # nearest the literal; a double keeps the literal
    plan = _lower(NBODY_TEXT.replace("DVar R float 0.5;", decl))
    assert plan.select.value == want


def test_count_on_self_set_unsupported():
    text = NBODY_TEXT.replace("DVar R float 0.5;", "DVar R int 5;").replace(
        "DSet nm int n n;", "DSet nm int n R;"
    )
    checked, diags = validate(parse(text))
    assert not diags, diags
    with pytest.raises(UnsupportedProgramError):
        lower(checked)


def test_largest_scope_not_executable():
    text = KNN_TEXT.replace('"smallest"', '"largest"')
    checked, diags = validate(parse(text))
    assert not diags
    with pytest.raises(UnsupportedProgramError):
        lower(checked)


def test_update_outside_iteration_unsupported():
    text = KNN_TEXT + "AccD_Update(t, km);\n"
    checked, diags = validate(parse(text))
    assert not diags
    with pytest.raises(UnsupportedProgramError):
        lower(checked)


def test_two_set_iteration_must_update_target():
    text = KMEANS_LISTING.replace("AccD_Update(cSet, pSet, pkMat, S)", "AccD_Update(pSet, pkMat, S)")
    checked, diags = validate(parse(text))
    assert not diags
    with pytest.raises(UnsupportedProgramError):
        lower(checked)


def test_plan_json_round_trip():
    plan = _lower(KMEANS_LISTING)
    payload = plan.to_json_dict()
    assert payload["pipeline_kind"] == "iterative_two_set"
    assert payload["select"] == 1.0


# -- program-level fuzz ------------------------------------------------------


def test_generated_programs_lower_to_what_they_state():
    # every generated program validates and prints back to itself; a legal
    # one lowers to the plan its AST states, an illegal variant raises its
    # own message
    rng = np.random.default_rng(39)
    seen = Counter()
    for _ in range(1500):
        case = lowerable_program(rng)
        assert parse(pretty_print(case.program)) == case.program
        checked, diags = validate(case.program)
        assert diags == [], (pretty_print(case.program), diags)
        if case.illegal is None:
            assert lower(checked).to_json_dict() == case.plan, pretty_print(case.program)
            seen[case.plan["pipeline_kind"], case.plan["metric"], case.plan["max_iter"] is None] += 1
            continue
        with pytest.raises(UnsupportedProgramError, match=re.escape(ILLEGAL[case.illegal][1])):
            lower(checked)
        seen[case.illegal] += 1
    # every legal shape under every metric, k-means in both iteration modes,
    # and every illegal variant
    assert all(seen[k, metric, False] for k in ITERATIVE for metric in METRIC_NAMES)
    assert all(seen[ONESHOT, metric, True] for metric in METRIC_NAMES)
    assert all(seen["iterative_two_set", metric, True] for metric in METRIC_NAMES)
    assert all(seen[variant] for variant in ILLEGAL)


def _stated(program):
    """What a program's AST states, read without the validator or lowering:
    each set's (size, dim), the Comp_Dist, the Select's range value and
    the iteration count (None: one-shot or status exit)."""
    values = {
        d.name: float(np.float32(d.init)) if d.dtype == "float32" else d.init
        for d in program.decls
        if isinstance(d, VarDecl)
    }

    def value(ref):
        return ref.value if ref.name is None else values[ref.name]

    sets = {d.name: (value(d.size), value(d.dim)) for d in program.decls if isinstance(d, SetDecl)}
    (top,) = [c for c in program.body if isinstance(c, Iter)] or [None]
    calls = program.body if top is None else top.body
    (comp,) = [c for c in calls if isinstance(c, ComputeDist)]
    (sel,) = [c for c in calls if isinstance(c, DistSelect)]
    steps = None if top is None or top.is_status_mode else top.condition.value
    return sets, comp, value(sel.rng), steps


def test_generated_programs_run_as_stated():
    # two small legal programs of each shape, k-means with fixed and with
    # status iteration, run in shadow mode, and equal a brute-force oracle
    # given the metric, count or radius and iteration count the AST states
    rng = np.random.default_rng(3)
    ran = Counter()
    while sum(ran.values()) < 8:
        case = lowerable_program(rng, max_size=24)
        if case.illegal:
            continue
        kind = case.plan["pipeline_kind"]
        if ran[kind, case.plan["max_iter"] is None] == 2:
            continue
        ran[kind, case.plan["max_iter"] is None] += 1
        sets, comp, value, steps = _stated(case.program)
        data = {name: rng.normal(size=sets[name]) for name in {comp.p1, comp.p2}}
        src = data[comp.p1]
        weights = rng.uniform(0.5, 2.0, size=src.shape[1]) if "Weighted" in comp.metric else None
        metric = MetricSpec.from_name(comp.metric, weights=weights)
        trg = None if comp.p1 == comp.p2 else Dataset.from_values(data[comp.p2])
        config = RunConfig(design=DesignConfig(n_src_grp=4, n_trg_grp=3), oracle_mode="shadow")
        result = run_plan(lower(validate(case.program)[0]), Dataset.from_values(src), trg, config,
                          weights=weights)
        if kind == ONESHOT:
            ids, dists = oracles.knn_topk(src, trg.values, metric, value)
            assert np.array_equal(result.outputs["topk"].ids, ids)
            assert np.array_equal(result.outputs["topk"].distances, dists)
        elif kind == "iterative_two_set":
            cap = config.status_iter_cap if steps is None else steps
            history, centers, iters = oracles.lloyd_kmeans(src, trg.values, metric, cap)
            assert result.iterations == iters
            assert np.array_equal(result.outputs["assignments"], history[-1])
            assert np.array_equal(result.outputs["centroids"], centers)
        else:
            assert result.iterations == steps == len(result.outputs["neighbors"])
            for pos, got in zip(result.outputs["trajectories"], result.outputs["neighbors"]):
                want = oracles.radius_neighbors(pos, metric, value)
                assert np.array_equal(got.offsets, want.offsets)
                assert np.array_equal(got.ids, want.ids)
