import pytest

from accd.ddsl import lower, parse, validate
from accd.errors import UnsupportedProgramError

from conftest import KMEANS_LISTING, status_mode

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
