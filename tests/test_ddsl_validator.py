import pytest

from accd.ddsl import parse, validate

from conftest import KMEANS_LISTING


def _diags(text):
    program = parse(text)
    checked, diags = validate(program)
    return checked, diags


def test_listing_validates_clean():
    checked, diags = _diags(KMEANS_LISTING)
    assert diags == []
    assert checked is not None
    assert checked.set_shape("pSet") == (1400, 20)
    assert checked.set_shape("distMat") == (1400, 200)
    assert checked.status_vars == ("S",)


def test_renamed_decl_leaves_undefined_use():
    text = KMEANS_LISTING.replace("DSet pSet float psize D;", "DSet qSet float psize D;")
    checked, diags = _diags(text)
    assert checked is None
    undef = [d for d in diags if "pSet" in d.message]
    assert len(undef) >= 1
    assert undef[0].span.line >= 10  # at first use inside the iteration


def test_k_exceeding_target_size_is_range_diagnostic():
    text = KMEANS_LISTING.replace("DVar K int 1;", "DVar K int 300;")
    # keep the output shape consistent so only the range rule fires
    checked, diags = _diags(text)
    assert checked is None
    assert len(diags) == 1
    assert "exceeds target set size" in diags[0].message


def test_weighted_metric_requires_weight_set():
    text = KMEANS_LISTING.replace('"Unweighted L1", 0', '"Weighted L1", 0')
    checked, diags = _diags(text)
    assert checked is None
    assert any("weight" in d.message for d in diags)


def test_weighted_metric_with_declared_weights_ok():
    text = KMEANS_LISTING.replace(
        "DSet pkMat int psize K;",
        "DSet pkMat int psize K;\nDSet wMat float 1 D;",
    ).replace('"Unweighted L1", 0', '"Weighted L1", wMat')
    checked, diags = _diags(text)
    assert diags == []
    assert checked is not None


def test_weight_set_shape_checked():
    text = KMEANS_LISTING.replace(
        "DSet pkMat int psize K;",
        "DSet pkMat int psize K;\nDSet wMat float 2 D;",
    ).replace('"Unweighted L1", 0', '"Weighted L1", wMat')
    checked, diags = _diags(text)
    assert checked is None
    assert any("weight matrix" in d.message for d in diags)


def test_distance_matrix_shape_mismatch():
    text = KMEANS_LISTING.replace(
        "DSet distMat float psize csize;", "DSet distMat float psize psize;"
    )
    checked, diags = _diags(text)
    assert checked is None
    assert any("distance matrix" in d.message for d in diags)


def test_unknown_metric_string():
    text = KMEANS_LISTING.replace('"Unweighted L1"', '"unweighted l1"')
    checked, diags = _diags(text)
    assert checked is None
    assert any("unknown metric" in d.message for d in diags)


def test_duplicate_declaration():
    checked, diags = _diags("DVar K int 1;\nDVar K int 2;")
    assert checked is None
    assert any("duplicate" in d.message for d in diags)


def test_non_integer_literal_for_int():
    checked, diags = _diags("DVar K int 1.5;")
    assert checked is None
    assert any("non-integer" in d.message for d in diags)


def test_unresolved_size_variable():
    checked, diags = _diags("DVar n int;\nDSet s float n 2;")
    assert checked is None
    assert any("no initial value" in d.message for d in diags)


def test_validation_is_deterministic():
    text = KMEANS_LISTING.replace("DSet pSet float psize D;", "DSet qSet float psize D;")
    program = parse(text)
    _, first = validate(program)
    _, second = validate(program)
    assert first == second


def test_diagnostic_spans_inside_input():
    text = KMEANS_LISTING.replace("DVar K int 1;", "DVar K int 300;")
    program = parse(text)
    _, diags = validate(program)
    lines = text.splitlines()
    for d in diags:
        assert 1 <= d.span.line <= len(lines)
        assert 1 <= d.span.col <= len(lines[d.span.line - 1]) + 1
