"""The DDSL front end fails only with typed errors. Seeded character and
token edits of the samples and of generated programs, with non-ASCII
digits and huge literals among them, never make ``parse``, ``validate``
or ``lower`` raise anything else, and every program that parses prints
back to itself."""

import re
from pathlib import Path

import numpy as np
import pytest

from accd.ddsl import lower, parse, pretty_print, validate
from accd.errors import AccdError, DdslSyntaxError

from ddsl_fuzz import random_program

SAMPLES = [p.read_text() for p in sorted(Path(__file__).resolve().parent.parent.glob("samples/*.ddsl"))]
HUGE = ["9" * 400, "-" + "9" * 400, "9" * 5001, "1e999", "-1e999", "2147483648", "5e-324"]
# inputs that raised ValueError or OverflowError, or read "1٣" as 13, and
# the stage that now stops each
CRASHES = {
    "superscript-digit": ("syntax", "DVar K int ²;"),
    "arabic-indic-digit": ("syntax", "DVar K int 1٣;"),
    "400-digit-double": ("diagnostics", "DVar R double " + "9" * 400 + ";"),
    "5001-digit-int": ("syntax", "DVar K int " + "9" * 5001 + ";"),
    "infinite-int-dim": ("diagnostics", "DVar d int 1e999;\nDSet s float 4 d;"),
    "400-digit-count": (
        "lowering",
        "DVar D int 2;\nDSet q float 4 D;\nDSet t float {0} D;\n"
        "DSet dm float 4 {0};\nDSet im int 4 {0};\nDSet out int 4 {0};\n"
        'AccD_Comp_Dist(q, t, dm, im, D, "Unweighted L2", 0);\n'
        'AccD_Dist_Select(dm, im, {0}, "smallest", out);'.format("9" * 400),
    ),
}
CHARS = list(' \t\n\r(){},;=-."*/_eE09aZ') + ["²", "٣", "\u00a0", "é"]
TOKENS = ["DVar", "DSet", "int", "double", "AccD_Iter", "AccD_Update", "(", ")", "{", "}", ",", ";", "/*", '"']


def _mutant(rng: np.random.Generator, text: str) -> str:
    """``text`` after one to three character or token edits."""

    def pick(seq):
        return seq[int(rng.integers(0, len(seq)))]

    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(0, len(text) + 1))
        if rng.random() < 0.5:  # insert, delete or replace a character
            text = pick([text[:i] + pick(CHARS) + text[i:], text[:i] + text[i + 1 :],
                         text[:i] + pick(CHARS) + text[i + 1 :]])
            continue
        toks = re.findall(r"\w+|\s+|\S", text)
        numbers = [j for j, t in enumerate(toks) if t[0].isdigit()]
        j = int(rng.integers(0, len(toks)))
        if numbers and rng.random() < 0.5:  # a number becomes a huge one
            toks[pick(numbers)] = pick(HUGE)
        elif rng.random() < 0.5:
            del toks[j]
        else:
            toks.insert(j, pick(TOKENS + HUGE + ["²", "٣"]))
        text = "".join(toks)
    return text


def _check(text: str) -> str:
    """Assert the front end's contract on one input, and return the stage
    that stopped it: "syntax", "diagnostics", "lowering" or "plan"."""
    try:
        program = parse(text)
    except DdslSyntaxError as exc:
        lines = text.split("\n")
        assert 1 <= exc.line <= len(lines), (text, exc)
        assert 1 <= exc.col <= len(lines[exc.line - 1]) + 1, (text, exc)
        return "syntax"
    assert parse(pretty_print(program)) == program, text
    checked, diags = validate(program)
    if checked is None:
        assert diags
        return "diagnostics"
    try:
        lower(checked)
    except AccdError:
        return "lowering"
    return "plan"


@pytest.mark.parametrize("stage, text", CRASHES.values(), ids=CRASHES.keys())
def test_bad_numeric_literal_is_a_typed_error(stage, text):
    assert _check(text) == stage


def test_mutated_programs_fail_only_with_typed_errors():
    rng = np.random.default_rng(37)
    bases = SAMPLES + [pretty_print(random_program(rng)) for _ in range(40)]
    parsed = 0
    for base in bases:
        for text in [base] + [_mutant(rng, base) for _ in range(40)]:
            parsed += _check(text) != "syntax"
    assert parsed > 100  # the edits leave programs that parse, too
