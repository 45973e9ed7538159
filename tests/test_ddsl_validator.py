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
    assert checked.shapes["pSet"] == (1400, 20)
    assert checked.shapes["distMat"] == (1400, 200)
    assert checked.symbols["S"].implicit


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


@pytest.mark.parametrize(
    "dtype, literal, width",
    [("float", "3.5e38", 32), ("double", "1e999", 64), ("double", "-" + "9" * 400, 64)],
)
def test_float_literal_overflowing_its_type(dtype, literal, width):
    checked, diags = _diags(f"DVar R {dtype} {literal};")
    assert checked is None
    assert [d.message.endswith(f"overflows float{width}") for d in diags] == [True]


def test_infinite_literal_for_a_size_variable_is_a_diagnostic():
    # int(inf) would overflow when the size resolves
    checked, diags = _diags("DVar d int 1e999;\nDSet s float 4 d;")
    assert checked is None
    assert [d.message for d in diags] == ["non-integer literal for int variable 'd'"]


@pytest.mark.parametrize("text, what", [("DSet s float s 3;", "size"), ("DSet s float 3 s;", "dim")])
def test_set_is_not_declared_while_its_shape_resolves(text, what):
    checked, diags = _diags(text)
    assert checked is None
    assert [d.message for d in diags] == [f"undefined identifier 's' used as {what} of 's'"]


_RADIUS_PROGRAM = """DVar R {dtype} {literal};
DSet p float 8 3;
DSet dm float 8 8;
DSet im int 8 8;
DSet nm int 8 8;
AccD_Iter(2){{
    AccD_Comp_Dist(p, p, dm, im, 3, "Unweighted L2", 0);
    AccD_Dist_Select(dm, im, R, "smallest", nm);
    AccD_Update(p, nm);
}}
"""


@pytest.mark.parametrize("dtype", ["float", "double"])
def test_positive_radius_that_a_float_holds_as_zero_is_a_diagnostic(dtype):
    # a float variable holds the float32 nearest its literal, 0 for 1e-50;
    # a double holds the literal
    checked, diags = _diags(_RADIUS_PROGRAM.format(dtype=dtype, literal="1e-50"))
    if dtype == "double":
        assert diags == [] and checked is not None
    else:
        assert checked is None
        assert [d.message for d in diags] == ["radius 1e-50 is 0 as a float; declare it double"]
