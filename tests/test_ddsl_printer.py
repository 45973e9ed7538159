import numpy as np

from accd.ddsl import parse, pretty_print

from conftest import KMEANS_LISTING
from ddsl_fuzz import random_program

GOLDEN_LISTING = """DVar K int 1;
DVar D int 20;
DVar psize int 1400;
DVar csize int 200;
DSet pSet float psize D;
DSet cSet float csize D;
DSet distMat float psize csize;
DSet idMat int psize csize;
DSet pkMat int psize K;
AccD_Iter(S)
{
    S = false;
    AccD_Comp_Dist(pSet, cSet, distMat, idMat, D, "Unweighted L1", 0);
    AccD_Dist_Select(distMat, idMat, K, "smallest", pkMat);
    AccD_Update(cSet, pSet, pkMat, S);
}
"""


def test_canonical_form_is_frozen():
    assert pretty_print(parse(KMEANS_LISTING)) == GOLDEN_LISTING


def test_single_decl_print():
    assert pretty_print(parse("DVar K int 10;")) == "DVar K int 10;\n"


def test_listing_fixpoint():
    p = parse(KMEANS_LISTING)
    assert parse(pretty_print(p)) == p


def test_printed_iter_uses_own_line_braces():
    text = pretty_print(parse(KMEANS_LISTING))
    lines = text.splitlines()
    assert "AccD_Iter(S)" in lines
    assert "{" in lines and "}" in lines
    inner = [l for l in lines if l.startswith("    ")]
    assert len(inner) == 4  # status reset + three constructs


def test_fuzzed_fixpoint_small():
    rng = np.random.default_rng(999)
    for _ in range(200):
        program = random_program(rng)
        text = pretty_print(program)
        reparsed = parse(text)
        assert reparsed == program
        assert parse(pretty_print(reparsed)) == reparsed


def test_float_literals_round_trip():
    for lit in ("2.5", "1e-05", "123456.789", "-0.001", "3e12"):
        p = parse(f"DVar R double {lit};")
        assert parse(pretty_print(p)) == p
