from functools import cache
from math import comb

import pytest

from dualgroth import groth
from dualgroth.groth import (G_truncated, c_coeff, d_coeff, g_skew,
                             g_to_schur, rpp_generating_poly, schur_to_g)
from dualgroth.partitions import (column_count, contains,
                                  partitions_of_containing, partitions_up_to,
                                  size, skew_half_turn, subpartitions)
from dualgroth.operators import tilde_c, tilde_d
from dualgroth.schur import (SymFunc, TruncSeries, hall, lr_coeff, schur,
                             schur_expand_raw, raw_is_symmetric, to_polynomial)
from dualgroth.tpoly import ONE, T, TPoly, ZERO, add_terms
from lift_oracle import peel_lift
from literature_oracle import buch_c, jacobi_trudi_g, rook_strip_d
from lr_oracle import hook_syt_count, skew_syt_count
from rpp_oracle import enumerate_rpp, rpp_weight


def as_int_dict(expansion):
    return {la: c.as_int() for la, c in expansion.items()}


def test_enumerate_rpp_examples():
    assert list(enumerate_rpp((2, 1), (2, 1), 3)) == [{}]
    assert list(enumerate_rpp((1,), (), 2)) == [{(0, 0): 1}, {(0, 0): 2}]
    col = list(enumerate_rpp((1, 1), (), 2))
    assert col == [{(0, 0): 1, (1, 0): 1}, {(0, 0): 1, (1, 0): 2},
                   {(0, 0): 2, (1, 0): 2}]
    with pytest.raises(ValueError):
        list(enumerate_rpp((1,), (), 0))


def test_rpp_weight_counts_columns_once():
    filling = {(0, 0): 1, (1, 0): 1, (0, 1): 2}
    assert rpp_weight(filling) == {1: 1, 2: 1}
    tall = {(0, 0): 3, (1, 0): 3, (2, 0): 3}
    assert rpp_weight(tall) == {3: 1}


def test_generating_poly_matches_enumeration():
    # brute-force oracle for the column transfer, with fewer variables than
    # cells (the case g_skew uses) as well as one per cell
    for la in partitions_up_to(6):
        for mu in subpartitions(la):
            for n in {1, 2, 3, max(1, size(la) - size(mu))}:
                brute = {}
                for filling in enumerate_rpp(la, mu, n):
                    exp = [0] * n
                    for v, k in rpp_weight(filling).items():
                        exp[v - 1] = k
                    key = tuple(exp)
                    brute[key] = brute.get(key, 0) + 1
                assert rpp_generating_poly(la, mu, n) == brute


def test_straight_g_matches_the_jacobi_trudi_determinant():
    for la in partitions_up_to(8):
        assert g_to_schur(la) == jacobi_trudi_g(la), la
    for k in range(1, 7):
        staircase = tuple(range(k, 0, -1))
        assert g_to_schur(staircase) == jacobi_trudi_g(staircase), staircase


def test_jacobi_trudi_with_plain_binomials_fails():
    # mutant: h_m(x, 1^a) weighted by C(a, k) in place of C(a+k-1, k); the
    # two weights agree for k <= 1
    wrong = {la for la in partitions_up_to(4) if g_to_schur(la) != jacobi_trudi_g(la, comb)}
    assert {(1, 1, 1), (2, 2), (2, 1, 1)} <= wrong
    assert not wrong & (set(partitions_up_to(3)) - {(1, 1, 1)})


def _g_product_triples(n):
    """Every (la, mu, nu) with |la| <= n on which G_mu G_nu can reach G_la:
    |mu| + |nu| <= |la|."""
    return [(la, mu, nu) for la in partitions_up_to(n)
            for mu in partitions_up_to(size(la))
            for nu in partitions_up_to(size(la) - size(mu))]


def _coproduct_triples(n):
    """Every (la, mu, nu) with |la| <= n and mu, nu inside la."""
    return [(la, mu, nu) for la in partitions_up_to(n)
            for mu in subpartitions(la) for nu in subpartitions(la)]


def test_c_matches_buchs_rule():
    nonzero = 0
    for la, mu, nu in _g_product_triples(6):
        v = c_coeff(la, mu, nu)
        assert v == buch_c(la, mu, nu), (la, mu, nu)
        nonzero += v != 0
    assert (len(_g_product_triples(6)), nonzero) == (2311, 359)


def test_buchs_rule_with_decreasing_boxes_fails():
    # mutant: each box's entries listed in decreasing order in the word
    def decreasing(box):
        return sorted(box, reverse=True)

    assert buch_c((2, 1), (1,), (1,), decreasing) == -2 != c_coeff((2, 1), (1,), (1,))
    assert any(c_coeff(*x) != buch_c(*x, decreasing) for x in _g_product_triples(5))


def test_d_matches_the_rook_strip_rule():
    nonzero = 0
    for la, mu, nu in _coproduct_triples(6):
        v = d_coeff(la, mu, nu)
        assert v == rook_strip_d(la, mu, nu), (la, mu, nu)
        nonzero += v != 0
    assert (len(_coproduct_triples(6)), nonzero) == (2122, 925)


def test_rook_strip_rule_without_removals_fails():
    # mutant: only kappa = mu, no rook strip removed
    def none_removed(mu):
        return [mu]

    assert rook_strip_d((1,), (1,), (1,), none_removed) == 0 != d_coeff((1,), (1,), (1,))
    assert any(d_coeff(*x) != rook_strip_d(*x, none_removed) for x in _coproduct_triples(4))


def test_tilde_d_sums_the_rook_strip_rule_over_subshapes():
    d = cache(rook_strip_d)
    for la, mu, nu in _coproduct_triples(6):
        want = sum(d(la, alpha, beta) for alpha in subpartitions(mu)
                   for beta in subpartitions(nu))
        assert tilde_d(la, mu, nu) == want, (la, mu, nu)


def test_g_skew_small_values():
    assert g_skew((), ()) == SymFunc.one()
    assert g_skew((2,), ()) == schur((2,))
    assert g_skew((1, 1), ()) == schur((1, 1)) + schur((1,))
    assert g_skew((3, 1), (3, 1)) == SymFunc.one()
    assert g_skew((1,), (2,)).is_zero()


def test_straight_g_matches_transfer_and_lift():
    # independent route for straight shapes: RPP transfer, symmetry check,
    # Schur lift
    for la in partitions_up_to(10):
        n = max(1, len(la))
        raw = rpp_generating_poly(la, (), n)
        assert raw_is_symmetric(raw, n), la
        assert as_int_dict(g_to_schur(la).terms) == schur_expand_raw(raw, n), la
    assert g_to_schur((2, 2)) == schur((2,)) + schur((2, 1)) + schur((2, 2))


def test_straight_g_skips_transfer(monkeypatch):
    def boom(*args):
        raise AssertionError("transfer called for a straight shape")

    monkeypatch.setattr(groth, "rpp_generating_poly", boom)
    g_skew.cache_clear()
    try:
        assert g_skew((3, 2, 1), ()).coeff((3, 2, 1)) == ONE
        with pytest.raises(AssertionError):
            g_skew((3, 2, 1), (1,))
    finally:
        g_skew.cache_clear()


def test_skew_g_lift_rejects_asymmetric_transfer(monkeypatch):
    # the lift is the only symmetry check on the skew path
    monkeypatch.setattr(groth, "rpp_generating_poly", lambda *args: {(1, 0): 1})
    g_skew.cache_clear()
    try:
        with pytest.raises(ValueError):
            g_skew((2, 1), (1,))
    finally:
        g_skew.cache_clear()


def test_skew_g_matches_transfer_on_the_original_shape_up_to_9():
    # g_skew builds the normal form, or the product of its pieces; the
    # transfer and lift run on the shape as given, empty rows and columns
    # included.  The lift by Kostka rows gives the terms of the peel over
    # whole Schur polynomials, in the same order.
    pairs = 0
    for la in partitions_up_to(9):
        for mu in subpartitions(la):
            ncells = size(la) - size(mu)
            if not mu or ncells == 0:
                continue
            n = min(ncells, len(la))
            raw = rpp_generating_poly(la, mu, n)
            lift = schur_expand_raw(raw, n)
            assert list(lift.items()) == list(peel_lift(raw, n).items()), (la, mu)
            assert as_int_dict(g_skew(la, mu).terms) == lift, (la, mu)
            pairs += 1
    assert pairs == 1399


def test_disconnected_diagram_is_the_product_of_its_pieces(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[:2])
        return rpp_generating_poly(*args)

    monkeypatch.setattr(groth, "rpp_generating_poly", counting)
    g_skew.cache_clear()
    try:
        # three or more rows: the product of the pieces' g's
        assert g_skew((3, 1, 1), (1,)) == g_to_schur((2,)) * g_to_schur((1, 1))
        assert g_skew((3, 2, 1), (2, 1)) == schur((1,)) * schur((1,)) * schur((1,))
        assert g_skew((3, 3, 1), (2, 1)) == g_skew((2, 2), (1,)) * schur((1,))
        assert g_skew((4, 3, 1), (2, 1)) == g_skew((3, 2), (1,)) * schur((1,))
        # one transfer per piece that does not turn into a straight shape:
        # (2,2)/(1) turns into (2,1), and (3,2)/(1) is its own turn
        assert calls == [((3, 2), (1,))]
        # a two-row or a connected diagram keeps the transfer
        g_skew((2, 1), (1,))
        g_skew((3, 2, 1), (1,))
        assert calls[1:] == [((2, 1), (1,)), ((3, 2, 1), (1,))]
    finally:
        g_skew.cache_clear()


@pytest.mark.parametrize("outer,inner", [((2,) + (1,) * 16, (1,)),
                                         ((3,) + (1,) * 12, (1, 1)),
                                         ((2,) * 10, (1,) * 3),
                                         ((3,) * 8, (1, 1))])
def test_pushed_disconnected_g_by_invariants(outer, inner):
    # too tall for the transfer (17 s on the first shape, about a minute
    # on the third); checked by invariants that read neither the
    # transfer, nor the pieces, nor the half-turn
    g = g_skew(outer, inner)
    # in one variable every entry is 1, one x per column
    assert to_polynomial(g, 1).terms == {(column_count(outer, inner),): ONE}
    # g_nu(1) = 1 for every nu, so the g-coefficients sum to g(1) = 1
    assert sum(c.as_int() for c in schur_to_g(g).values()) == 1
    # the top-degree part is the skew Schur function s_{outer/inner}
    ncells = size(outer) - size(inner)
    assert sum(c.as_int() * hook_syt_count(nu) for nu, c in g.terms.items()
               if size(nu) == ncells) == skew_syt_count(outer, inner)


def _translated(la, mu, k, j):
    # la/mu moved right by k columns and down by j full rows
    top = (la[0] + k,) * j
    inner = mu + (0,) * (len(la) - len(mu))
    return (top + tuple(x + k for x in la),
            tuple(x for x in top + tuple(x + k for x in inner) if x))


def test_translated_diagrams_have_the_same_g():
    for la, mu in [((3, 2, 1), (1,)), ((2, 2), ()), ((4, 2, 1), (2, 1)),
                   ((3, 1), (1,))]:
        for k, j in [(1, 0), (0, 1), (2, 1), (1, 2)]:
            la2, mu2 = _translated(la, mu, k, j)
            for n in (1, 2, 3):
                assert (rpp_generating_poly(la2, mu2, n)
                        == rpp_generating_poly(la, mu, n)), (la2, mu2, n)
            assert g_skew(la2, mu2) == g_skew(la, mu), (la2, mu2)
    assert _translated((2, 1), (1,), 1, 1) == ((3, 3, 2), (3, 2, 1))


def test_turned_diagrams_have_the_same_generating_poly():
    # the turn reverses the order of the entries (v -> n+1-v) and keeps the
    # column weight; the polynomial is symmetric, so it is unchanged
    for la, mu in [((2, 2), (1,)), ((3, 2, 1), (1,)), ((4, 2, 1), (2, 1)),
                   ((3, 3, 2), (1, 1)), ((2,) * 5, (1, 1)), ((4, 3, 3), (2,))]:
        turned = skew_half_turn(la, mu)
        assert turned != (la, mu)
        for n in (1, 2, 3):
            assert (rpp_generating_poly(*turned, n)
                    == rpp_generating_poly(la, mu, n)), (la, mu, n)


def test_skew_g_of_a_straight_diagram_skips_transfer(monkeypatch):
    def boom(*args):
        raise AssertionError("transfer called for a straight diagram")

    monkeypatch.setattr(groth, "rpp_generating_poly", boom)
    g_skew.cache_clear()
    try:
        assert g_skew((3, 3, 1), (3,)) == g_to_schur((3, 1))
        # (2,2)/(1) turned by 180 degrees is the straight (2,1)
        assert g_skew((2, 2), (1,)) == g_to_schur((2, 1))
    finally:
        g_skew.cache_clear()


def test_g_skew_variable_count_reduction_is_safe():
    # the lift from min(|shape|, rows) variables agrees with the lift from
    # |shape| variables wherever the latter is affordable
    for la in partitions_up_to(6):
        for mu in subpartitions(la):
            ncells = size(la) - size(mu)
            if ncells == 0:
                continue
            n_full = max(1, ncells)
            full = schur_expand_raw(rpp_generating_poly(la, mu, n_full), n_full)
            assert as_int_dict(g_skew(la, mu).terms) == full


def test_g_schur_support_inside_outer_shape():
    for la in partitions_up_to(7):
        for mu in subpartitions(la):
            for tau in g_skew(la, mu).terms:
                assert contains(tau, la)
                assert size(tau) <= size(la) - size(mu)


def test_g_top_term():
    for la in partitions_up_to(7):
        f = g_to_schur(la)
        assert f.coeff(la) == ONE
        assert all(size(tau) < size(la) for tau in f.terms if tau != la)


WORKED_EXPANSIONS = {
    ((3, 2, 1), (1,)): {(3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1,
                        (3, 1): -1, (2, 2): -1, (2, 1, 1): -1, (2, 1): 1},
    ((3, 2), (1,)): {(3, 1): 1, (2, 2): 1, (2, 1): -1},
    ((3, 1, 1), (1,)): {(3, 1): 1, (2, 1, 1): 1, (2, 1): -1},
    ((2, 2, 1), (1,)): {(2, 2): 1, (2, 1, 1): 1, (2, 1): -1},
    ((3, 1), (1,)): {(3,): 1, (2, 1): 1, (2,): -1},
    ((2, 2), (1,)): {(2, 1): 1},
    ((2, 1, 1), (1,)): {(2, 1): 1, (1, 1, 1): 1, (1, 1): -1},
    ((3,), (1,)): {(2,): 1},
    ((2, 1), (1,)): {(2,): 1, (1, 1): 1, (1,): -1},
    ((1, 1, 1), (1,)): {(1, 1): 1},
    ((2,), (1,)): {(1,): 1},
    ((1, 1), (1,)): {(1,): 1},
    ((1,), (1,)): {(): 1},
    ((3, 2, 1), (2, 1)): {(3,): 1, (2, 1): 2, (1, 1, 1): 1,
                          (2,): -2, (1, 1): -2, (1,): 1},
    ((3, 2, 1), (2,)): {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1, (2, 1): -2},
    ((3, 2, 1), (1, 1)): {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1, (2, 1): -2},
    ((3, 2, 1), (3,)): {(2, 1): 1},
    ((3, 2, 1), (1, 1, 1)): {(2, 1): 1},
    ((3, 2, 1), (3, 1)): {(2,): 1, (1, 1): 1, (1,): -1},
    ((3, 2, 1), (2, 2)): {(2,): 1, (1, 1): 1, (1,): -1},
    ((3, 2, 1), (2, 1, 1)): {(2,): 1, (1, 1): 1, (1,): -1},
    ((3, 2, 1), (3, 2)): {(1,): 1},
    ((3, 2, 1), (3, 1, 1)): {(1,): 1},
    ((3, 2, 1), (2, 2, 1)): {(1,): 1},
    ((3, 2, 1), (3, 2, 1)): {(): 1},
}


def test_g_basis_expansions_match_worked_table():
    for (la, mu), want in WORKED_EXPANSIONS.items():
        got = as_int_dict(schur_to_g(g_skew(la, mu)))
        assert got == want, (la, mu)


def test_schur_to_g_examples():
    assert as_int_dict(schur_to_g(schur((1, 1)))) == {(1, 1): 1, (1,): -1}
    assert as_int_dict(schur_to_g(SymFunc.one())) == {(): 1}


def test_g_schur_round_trip():
    for la in partitions_up_to(6):
        f = g_to_schur(la)
        assert as_int_dict(schur_to_g(f)) == {la: 1}
        back = add_terms({}, ((mu, c * k)
                              for nu, c in schur_to_g(schur(la)).items()
                              for mu, k in g_to_schur(nu).terms.items()))
        assert SymFunc(back) == schur(la)


def _schur_in_g_by_recursion(sigma, memo):
    # the former route: peel s_sigma off g_sigma and recurse on the lower
    # Schur terms of g_sigma
    if sigma not in memo:
        row = {sigma: 1}
        for tau, c in g_to_schur(sigma).terms.items():
            if tau != sigma:
                for la, k in _schur_in_g_by_recursion(tau, memo).items():
                    row[la] = row.get(la, 0) - c.as_int() * k
        memo[sigma] = {la: k for la, k in row.items() if k}
    return memo[sigma]


def test_schur_to_g_matches_recursion_through_g_up_to_9():
    memo = {}
    for sigma in partitions_up_to(9):
        assert (as_int_dict(schur_to_g(schur(sigma)))
                == _schur_in_g_by_recursion(sigma, memo)), sigma


def _G_by_triangular_solve(la, N):
    # the former route: solve (G_la, g_sigma) = delta degree by degree
    coeffs = {la: 1}
    for m in range(size(la) + 1, N + 1):
        for sigma in partitions_of_containing(m, la):
            gs = g_to_schur(sigma)
            val = -sum(a * gs.coeff(tau).as_int() for tau, a in coeffs.items())
            if val:
                coeffs[sigma] = val
    return coeffs


def test_G_truncated_matches_triangular_solve_up_to_6():
    for la in partitions_up_to(6):
        assert (as_int_dict(G_truncated(la, 9).terms)
                == _G_by_triangular_solve(la, 9)), la


def _G_by_column_scan(la, N):
    # the former route: entry la of the strict table of every shape that
    # contains la, up to N cells
    column = {mu: groth._fillings(mu, len(mu) - 1, True).get(la)
              for m in range(size(la), N + 1) for mu in partitions_of_containing(m, la)}
    return {mu: c for mu, c in column.items() if c}


def test_G_truncated_matches_the_column_scan():
    # the support bound mu_1 = la_1, mu_i <= la_i + i - 1 drops no term,
    # on all 300 pairs with |la| <= 7 and |la| <= N <= 11
    pairs = [(la, N) for la in partitions_up_to(7) for N in range(size(la), 12)]
    assert len(pairs) == 300
    for la, N in pairs:
        assert as_int_dict(G_truncated(la, N).terms) == _G_by_column_scan(la, N), (la, N)


def test_g_coordinate_reads_the_G_support():
    # [g_la] f, read from the terms of f inside the support bound of G_la,
    # is the coordinate of the whole expansion
    for la in partitions_up_to(6):
        for sigma in partitions_up_to(8):
            f = schur(sigma) + schur((sigma[0] + 1,) + sigma[1:]) if sigma else schur(())
            assert groth._g_coordinate(f, la) == schur_to_g(f).get(la, ZERO), (la, sigma)


def test_c_coeff_examples():
    assert c_coeff((3, 2, 1), (1,), (2, 1)) == 1
    assert c_coeff((3, 2, 1), (1,), (3, 1)) == -1
    for la in partitions_up_to(6):
        for mu in subpartitions(la):
            total = sum(c_coeff(la, mu, nu)
                        for nu in partitions_up_to(size(la) - size(mu)))
            assert total == 1, (la, mu)


def test_d_coeff_examples():
    assert d_coeff((2,), (1,), (1,)) == 1
    assert d_coeff((1, 1), (1,), (1,)) == 1
    assert d_coeff((1,), (1,), (1,)) == -1
    for nu in partitions_up_to(4):
        for la in partitions_up_to(4):
            assert d_coeff(la, (), nu) == (1 if la == nu else 0)


def test_d_coeff_matches_unshortened_pairing():
    # the pairing against G_la, without the containment shortcut
    ps = partitions_up_to(4)
    for la in partitions_up_to(5):
        for mu in ps:
            for nu in ps:
                cap = size(mu) + size(nu)
                want = 0
                if size(la) <= cap:
                    want = hall(G_truncated(la, cap),
                                g_to_schur(mu) * g_to_schur(nu)).as_int()
                assert d_coeff(la, mu, nu) == want, (la, mu, nu)


def test_d_sum_rule_small():
    for mu in partitions_up_to(4):
        for nu in partitions_up_to(4):
            total = sum(schur_to_g(g_to_schur(mu) * g_to_schur(nu)).values(),
                        ZERO)
            assert total == ONE


def test_G_truncated_values():
    assert G_truncated((), 3).terms == {(): ONE}
    G1 = G_truncated((1,), 3)
    assert {la: c.as_int() for la, c in G1.terms.items()} == {
        (1,): 1, (1, 1): -1, (1, 1, 1): 1}
    with pytest.raises(ValueError):
        G_truncated((2, 1), 2)


@pytest.mark.parametrize("table, args, key", [
    (groth._fillings, ((3, 2, 1), 2, False), (9,)),
    (groth._fillings, ((2, 1), 1, True), (2,)),
    (lambda *args: g_skew(*args).terms, ((2, 1), ()), (9,)),
    (lambda *args: g_skew(*args).terms, ((3, 2), (1,)), (9,)),
    (lambda *args: G_truncated(*args).terms, ((1,), 3), (9,)),
], ids=["_fillings-elegant", "_fillings-strict", "g_skew", "g_skew-skew", "G_truncated"])
def test_cached_values_are_read_only(table, args, key):
    first = dict(table(*args))
    with pytest.raises(TypeError):
        table(*args)[key] = 5
    assert dict(table(*args)) == first


def test_G_duality_defining_property():
    G21 = G_truncated((2, 1), 5)
    for mu in partitions_up_to(5):
        want = ONE if mu == (2, 1) else ZERO
        assert hall(G21, g_to_schur(mu)) == want
    for la in partitions_up_to(5):
        for sigma in G_truncated(la, 5).terms:
            assert contains(la, sigma)


def test_gate_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        schur_expand_raw({(1, 0): 1}, 2)
    assert raw_is_symmetric({(1, 0): 1, (0, 1): 1}, 2)
    assert not raw_is_symmetric({(1, 0): 1}, 2)


def test_grouped_schur_to_g_matches_per_term_oracle():
    # t s_mu - t s_nu and (1+t) s_mu - s_nu: distinct coefficients whose
    # rows of the strict _fillings tables meet on shared g_la and cancel there
    shapes = partitions_up_to(5)
    for mu in shapes:
        for nu in shapes:
            for f in ((schur(mu) - schur(nu)).scale(T),
                      schur(mu).scale(ONE + T) - schur(nu)):
                want = add_terms({}, ((la, c * k) for sigma, c in f.terms.items()
                                      for la, k in groth._fillings(sigma, len(sigma) - 1, True).items()))
                got = schur_to_g(f)
                assert got == want, (mu, nu)
                for c in got.values():
                    assert type(c) is TPoly and c.coeffs and c.coeffs[-1] != 0


def test_entry_points_read_shapes_as_partitions():
    # a trailing zero names the same shape at every public constant, G and
    # LR entry point, and a shape that is not a partition is refused
    assert c_coeff((2, 1), (1,), (1, 0)) == -1
    assert d_coeff((1, 0), (1,), (1,)) == -1
    assert tilde_c((2, 1), (1,), (1, 0)) == 1
    assert tilde_d((2, 1, 0), (2, 1), (1,)) == 1
    assert G_truncated((1, 0), 2) == TruncSeries(2, {(1,): 1, (1, 1): -1})
    assert lr_coeff((2, 1, 0), (1,), (1, 1)) == 1
    with pytest.raises(ValueError):
        g_to_schur((1, 2))
    for f in (c_coeff, d_coeff, tilde_c, tilde_d, lr_coeff):
        with pytest.raises(ValueError):
            f((2, 1), (1, 2), (1,))
    with pytest.raises(ValueError):
        G_truncated((1, 2), 3)
