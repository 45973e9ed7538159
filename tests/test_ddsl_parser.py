import pytest

from accd.ddsl import parse
from accd.ddsl.ast import ComputeDist, DistSelect, Iter, Update, VarDecl
from accd.errors import DdslSyntaxError

from conftest import KMEANS_LISTING


def test_full_listing_shape():
    p = parse(KMEANS_LISTING)
    assert len(p.decls) == 9
    assert len(p.body) == 1
    it = p.body[0]
    assert isinstance(it, Iter)
    assert it.is_status_mode and it.condition.name == "S"
    assert [type(c) for c in it.body] == [ComputeDist, DistSelect, Update]
    assert it.status_assigns[0].name == "S" and it.status_assigns[0].value is False


def test_empty_input_fails_at_line_one():
    with pytest.raises(DdslSyntaxError) as exc:
        parse("")
    assert exc.value.line == 1 and exc.value.col == 1
    assert "'DVar'" in exc.value.expected


def test_single_var_decl():
    p = parse("DVar K int 10;")
    assert len(p.decls) == 1 and len(p.body) == 0
    decl = p.decls[0]
    assert isinstance(decl, VarDecl)
    assert decl.name == "K" and decl.dtype == "int32" and decl.init == 10


def test_float_var_decl_and_negative():
    p = parse("DVar R float 2.5;\nDVar T double -3.25;")
    assert p.decls[0].init == 2.5
    assert p.decls[1].init == -3.25


def test_int_literal_for_float_var_becomes_float():
    p = parse("DVar R float 2;")
    assert p.decls[0].init == 2.0 and isinstance(p.decls[0].init, float)


def test_missing_semicolon_position():
    with pytest.raises(DdslSyntaxError) as exc:
        parse("DVar K int 10")
    assert exc.value.line == 1
    assert "';'" in exc.value.expected


def test_unknown_dtype():
    with pytest.raises(DdslSyntaxError) as exc:
        parse("DVar K long 10;")
    assert "'int'" in exc.value.expected


def test_block_comments_are_skipped():
    p = parse("/* hello\nworld */ DVar K int 1; /* tail */")
    assert len(p.decls) == 1


def test_unterminated_comment():
    with pytest.raises(DdslSyntaxError):
        parse("DVar K int 1; /* oops")


def test_nested_iteration_rejected():
    src = (
        "DVar n int 4;\nDSet s float n n;\nDSet dm float n n;\nDSet im int n n;\n"
        "AccD_Iter(3){ AccD_Iter(2){ AccD_Update(s, s); } }"
    )
    with pytest.raises(DdslSyntaxError):
        parse(src)


def test_iteration_requires_a_construct():
    with pytest.raises(DdslSyntaxError):
        parse("DVar K int 1;\nAccD_Iter(S){ S = false; }")


def test_trailing_semicolon_optional_only_before_brace():
    ok = "DVar K int 1;\nDSet s float 4 2;\nAccD_Iter(2){ AccD_Update(s, s) }"
    p = parse(ok)
    assert isinstance(p.body[0].body[0], Update)
    bad = "DVar K int 1;\nDSet s float 4 2;\nAccD_Update(s, s)"
    with pytest.raises(DdslSyntaxError):
        parse(bad)


def test_update_needs_two_arguments():
    with pytest.raises(DdslSyntaxError):
        parse("DSet s float 4 2;\nAccD_Update(s);")


def test_error_reports_found_token():
    with pytest.raises(DdslSyntaxError) as exc:
        parse("DVar 9 int 1;")
    assert exc.value.found == "'9'"


def test_no_partial_success_on_trailing_garbage():
    with pytest.raises(DdslSyntaxError):
        parse("DVar K int 1; garbage")


def test_spans_are_positioned():
    p = parse(KMEANS_LISTING)
    it = p.body[0]
    assert it.span.line == 10
    comp = it.body[0]
    assert comp.span.line == 13
    lines = KMEANS_LISTING.splitlines()
    assert lines[comp.span.line - 1].lstrip().startswith("AccD_Comp_Dist")


@pytest.mark.parametrize(
    "text, col, found",
    [("DVar K int ²;", 12, "'²'"), ("DVar K int 1٣;", 13, "'٣'"), ("DVar ٣ int 1;", 6, "'٣'")],
)
def test_digits_are_ascii(text, col, found):
    # str.isdigit accepts both, and int() read "1٣" as 13
    with pytest.raises(DdslSyntaxError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col, exc.value.found) == (1, col, found)
    assert exc.value.expected == {"token"}


def test_identifiers_may_hold_non_ascii_letters_and_digits():
    assert parse("DVar é٣² int 1;").decls[0].name == "é٣²"


@pytest.mark.parametrize("head, col", [("DVar K int ", 12), ("DSet s float 2 ", 16)])
def test_integer_longer_than_python_converts_is_a_syntax_error(head, col):
    # int() of more than 4300 digits raises ValueError
    with pytest.raises(DdslSyntaxError) as exc:
        parse(head + "9" * 5001 + ";")
    assert (exc.value.line, exc.value.col, exc.value.found) == (1, col, "5001 digits")


def test_integer_literal_overflowing_a_double_is_infinite():
    p = parse("DVar R double " + "9" * 400 + ";\nDVar T float -" + "9" * 400 + ";")
    assert [d.init for d in p.decls] == [float("inf"), float("-inf")]


def test_negative_integer_zero_for_a_float_is_positive_zero():
    init = parse("DVar R float -0;").decls[0].init
    assert init == 0.0 and str(init) == "0.0"


def test_unclosed_string_fails_at_its_quote():
    with pytest.raises(DdslSyntaxError) as exc:
        parse('DVar n int 4;\nAccD_Update(s, "x\n");')
    assert (exc.value.line, exc.value.col, exc.value.found) == (2, 16, "end of line")
