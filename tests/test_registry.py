"""Every registered suite runs green at its documented default bound."""

import hashlib
import json
import re
from functools import cache
from pathlib import Path

import pytest

from dualgroth import operators, suites
from dualgroth.groth import g_to_schur, rpp_generating_poly
from dualgroth.partitions import format_skew, interval, size
from dualgroth.schur import schur, to_polynomial
from dualgroth.serialize import multipoly_text, symfunc_text
from dualgroth.suites import DEFAULT_SEED, SUITES, iter_cases, run_suite
from dualgroth.tpoly import ONE, T, MultiPoly

# sha256 of each suite's case ids, one a line in case order, at its
# default bound and DEFAULT_SEED (the first 16 hex digits)
CASE_IDS = {
    "symmetry-gate": "344c955dab0f9e6a",
    "g-top-term": "960893f92c03d26f",
    "g-coproduct": "0f6ae310c1108a77",
    "i-equals-one": "6aa59fd25593578f",
    "single-variable-weight": "6aa59fd25593578f",
    "g-G-duality": "db16b3dd4e074e12",
    "sum-rules-c": "625ed62118427759",
    "sum-rules-d": "692b938fbae4c784",
    "t-sum-rules": "efc956b2fa6dc75e",
    "i-multiplicative": "847fb5f3df41e2b5",
    "i-inverse": "960893f92c03d26f",
    "i-substitution": "322633352dbc82f5",
    "i-skew": "625ed62118427759",
    "perp-composition": "ab4cd1d2354fa372",
    "perp-adjoint": "ab4cd1d2354fa372",
    "phi-t-intertwine": "bc563b63291a7a12",
    "h-perp-basis": "62ae21c802fd9986",
    "e-perp-basis": "62ae21c802fd9986",
    "e-functional-morphism": "622bfae277d350e5",
    "series-generators": "e02a7e4f7048b74c",
    "series-g-products": "ebe64d96e938296c",
    "hopf-axioms": "59c5222b69a7309a",
    "incidence-inverse": "e876c3d146a364b9",
    "example-321-1": "4b43f3464ddea00f",
    "counterexamples": "27ff8b593510a6d8",
    "skew-pieri": "550c49e6388d716b",
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_default_run_is_green(name):
    results = run_suite(name)
    assert results, "suite %s yielded no cases" % name
    bad = [(cid, lhs, rhs) for cid, ok, lhs, rhs in results if not ok]
    assert not bad, bad[:3]


def test_case_lists_are_pinned():
    # a dropped, added, renamed or reordered case changes its suite's hash
    got = {}
    for name in SUITES:
        ids = "\n".join(cid for cid, _ in iter_cases(name, seed=DEFAULT_SEED))
        got[name] = hashlib.sha256(ids.encode()).hexdigest()[:16]
    assert got == CASE_IDS


def test_readme_table_lists_the_registry():
    # a suite cannot be declared without its docs row: the README's suite
    # table lists exactly the registered names, each with its default bound
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Verification suites\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| (\d+) \|", section, re.M)
    assert sorted((name, int(bound)) for name, bound in rows) == sorted(
        (name, spec.default_max_size) for name, spec in SUITES.items())


@pytest.mark.parametrize("name, case", [("i-skew", "[3,2,1]/[1]"),
                                        ("example-321-1", "interval-union-sum")])
def test_interval_sums_read_both_sides(monkeypatch, name, case):
    # a suite that compares one side of I(g_{la/mu}) = sum g_{nu/mu}
    # = sum g_{la/nu} with itself stays green, so record which skew g
    # the case reads
    reads = set()
    g_skew = suites.g_skew

    def recorder(la, mu):
        reads.add((tuple(la), tuple(mu)))
        return g_skew(la, mu)

    monkeypatch.setattr(suites, "g_skew", recorder)
    thunk = dict(iter_cases(name))[case]
    assert thunk()[0]
    la, mu = (3, 2, 1), (1,)
    for nu in interval(mu, la):
        assert (nu, mu) in reads and (la, nu) in reads, nu


def _with_g(monkeypatch, shape, extra):
    # g_skew with extra added to the g of one skew shape
    g_skew = suites.g_skew

    def patched(la, mu):
        f = g_skew(la, mu)
        return f + extra if (tuple(la), tuple(mu)) == shape else f

    monkeypatch.setattr(suites, "g_skew", patched)


@pytest.mark.parametrize("name, case, shape, first, weight", [
    # the by-skew sum reads g_{la/nu} with weight t^col(nu)
    ("h-perp-basis", "[2,1]", ((2, 1), (1,)),
     lambda: operators.H_perp(T, g_to_schur((2, 1))), T),
    # the closed form reads g_{la/1^k} with weight t (t+1)^(k-1)
    ("e-perp-basis", "[2,1]", ((2, 1), (1,)),
     lambda: operators.E_perp(T, g_to_schur((2, 1))), T),
    # the outer interval sum reads g_{la/nu}, the inner one g_{nu/mu}
    ("i-skew", "[3,2,1]/[1]", ((3, 2, 1), (2, 1)),
     lambda: operators.op_I(suites.g_skew((3, 2, 1), (1,))), ONE),
], ids=["h-perp-basis", "e-perp-basis", "i-skew"])
def test_the_last_side_is_compared(monkeypatch, name, case, shape, first, weight):
    # an extra s_1 in the g of shape reaches only the last of the case's
    # three sides, so the case fails only if every side is compared, and
    # its texts are the first side and that last one
    image = first()
    _with_g(monkeypatch, shape, schur((1,)))
    ok, lhs, rhs = dict(iter_cases(name))[case]()
    assert not ok
    assert lhs == symfunc_text(image)
    assert rhs == symfunc_text(image + schur((1,)).scale(weight))


def _per_alphabet(la, mu):
    # the suite's variable count per alphabet
    return min(size(la) - size(mu), len(la))


def _split_text(la, mu):
    # the product side in exponent tuples: x^a y^b is the tuple a + b
    n = _per_alphabet(la, mu)
    total = MultiPoly(2 * n)
    for nu in interval(mu, la):
        px = to_polynomial(suites.g_skew(nu, mu), n).terms
        py = to_polynomial(suites.g_skew(la, nu), n).terms
        total = total + MultiPoly(2 * n, {a + b: c * d for a, c in px.items()
                                          for b, d in py.items()})
    return multipoly_text(total)


def test_g_coproduct_catches_a_wrong_coefficient(monkeypatch):
    # one Schur coefficient of g_{(2,1)/(1)} bumped by one: the packed
    # check fails both cases that read it, with both sides decoded
    _with_g(monkeypatch, ((2, 1), (1,)), schur((2,)))
    cases = dict(iter_cases("g-coproduct"))
    for la, mu, cid in [((2, 1), (), "[2,1]/[]"), ((2, 1), (1,), "[2,1]/[1]")]:
        ok, lhs, rhs = cases[cid]()
        nv = 2 * _per_alphabet(la, mu)
        assert not ok and lhs != rhs, cid
        assert lhs == _split_text(la, mu)
        assert rhs == multipoly_text(MultiPoly(nv, rpp_generating_poly(la, mu, nv)))


@pytest.mark.parametrize("shape, extra, want", [
    (((2, 1), (1,)), (1, 1, 1), "Schur terms inside [2,1] of size at most 2"),
    (((1, 1, 1), (1, 1)), (1, 1), "Schur terms inside [1,1,1] of size at most 1"),
], ids=["outside-la", "more-cells"])
def test_g_coproduct_catches_a_term_taller_than_its_alphabets(monkeypatch, shape, extra, want):
    # the extra term vanishes in the min(|la/mu|, l(la)) variables per
    # alphabet of the case (2 for [2,1]/[1], 1 for [1,1,1]/[1,1]), so
    # the two sides agree and only the support check can fail the case:
    # s_(1,1,1) lies outside (2,1), s_(1,1) has more cells than (1,1,1)/(1,1)
    _with_g(monkeypatch, shape, schur(extra))
    ok, lhs, rhs = dict(iter_cases("g-coproduct"))[format_skew(*shape)]()
    assert not ok
    assert lhs == symfunc_text(suites.g_skew(*shape))
    assert rhs == want


def test_g_coproduct_catches_a_term_of_l_la_rows(monkeypatch):
    # s_(1,1) lies inside the support of g_{(2,1)/(1)} and vanishes in
    # one variable per alphabet: l(la) = 2 variables per alphabet see it
    _with_g(monkeypatch, ((2, 1), (1,)), schur((1, 1)))
    ok, lhs, rhs = dict(iter_cases("g-coproduct"))["[2,1]/[1]"]()
    assert not ok
    assert lhs == _split_text((2, 1), (1,))
    assert rhs == multipoly_text(MultiPoly(4, rpp_generating_poly((2, 1), (1,), 4)))


def _with_I(monkeypatch, la, extra):
    # op_I with extra added to the image of s_la
    op_I = suites.op_I

    def patched(f):
        image = op_I(f)
        return image + schur(extra) if f == schur(la) else image

    monkeypatch.setattr(suites, "op_I", patched)
    return patched(schur(la))


def test_i_substitution_catches_a_term_outside_la(monkeypatch):
    # s_(1,1,1) vanishes in the l(la) = 2 variables of the left side, so
    # only the support check on I(s_(2,1)) can fail the case
    image = _with_I(monkeypatch, (2, 1), (1, 1, 1))
    ok, lhs, rhs = dict(iter_cases("i-substitution"))["[2,1]"]()
    assert not ok
    assert lhs == symfunc_text(image)
    assert rhs == "Schur terms inside [2,1] of size at most 3"


def test_i_substitution_catches_a_term_of_l_la_rows(monkeypatch):
    # s_(1,1) lies inside (2,1) and vanishes in one variable: the left
    # side needs l(la) = 2 variables to see it
    image = _with_I(monkeypatch, (2, 1), (1, 1))
    ok, lhs, rhs = dict(iter_cases("i-substitution"))["[2,1]"]()
    assert not ok
    assert lhs == multipoly_text(to_polynomial(image, 2))
    assert rhs == multipoly_text(to_polynomial(schur((2, 1)), 3).substitute_first(1))


def test_g_coproduct_fails_an_exponent_wider_than_its_field(monkeypatch):
    # la_1 = 1 gives one bit per field: an extra s_(2) in g_(1) puts x_1^2
    # and y_1^2 on the product side, which must fail the case, not alias
    # x_1^2 into y_1
    _with_g(monkeypatch, ((1,), ()), schur((2,)))
    ok, lhs, rhs = dict(iter_cases("g-coproduct"))["[1]/[]"]()
    assert not ok
    got = {tuple(t["exponents"]): t["coeff"] for t in json.loads(lhs)["terms"]}
    assert got == {(2, 0): "1", (1, 0): "1", (0, 2): "1", (0, 1): "1"}
    assert lhs == _split_text((1,), ())


@pytest.mark.parametrize("case", ["[1]/[]", "[1,1]/[]", "[2]/[]", "[2,2]/[1]",
                                  "[4]/[]", "[4,1]/[]", "[8]/[]"])
def test_g_coproduct_fields_hold_an_exponent_of_la_1(case):
    # la_1 = 2^j columns give x_v^(2^j), the widest exponent: the field is
    # one bit wider than 2^j - 1 needs, and a narrower one fails these cases
    assert dict(iter_cases("g-coproduct", 8))[case]() == (True, None, None)


def _drop_strip(sigma, table):
    # s_(2,1)(t, x) loses its strip to (2,)
    if sigma != (2, 1):
        return table
    return (table[0], {(1, 1): 1}) + table[2:]


def _power_k_minus_1(sigma, table):
    # a strip of k >= 1 cells weighted t^(k-1)
    return ({**table[0], **table[1]},) + table[2:] if len(table) > 1 else table


@pytest.mark.parametrize("mutate", [_drop_strip, _power_k_minus_1],
                         ids=["drop-strip", "t^(k-1)"])
@pytest.mark.parametrize("name", ["i-inverse", "h-perp-basis"])
def test_perp_suites_see_the_branching_rows(monkeypatch, name, mutate):
    # H(t)^perp reads the branching table at a formal t and its folded
    # rows at an integer t; a fresh cache of folded rows reads the mutated
    # table, so both routes go wrong
    branching = operators._branching
    monkeypatch.setattr(operators, "_branching", lambda sigma: mutate(sigma, branching(sigma)))
    monkeypatch.setattr(operators, "_folded", cache(operators._folded.__wrapped__))
    results = run_suite(name)
    assert any(not ok for _, ok, _, _ in results)
