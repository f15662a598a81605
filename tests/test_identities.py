"""Cross-cutting identity checks that tie several modules together, plus
spot checks at sizes beyond the exhaustive suites."""

import random

from dualgroth.groth import (G_truncated, g_skew, g_to_schur,
                             rpp_generating_poly, schur_to_g)
from dualgroth.operators import E_perp, H_perp, op_I, op_I_inv, perp
from dualgroth.partitions import (column_count, contains, interval,
                                  is_vertical_strip, partitions_of,
                                  partitions_up_to, size, subpartitions)
from dualgroth.schur import (H_series, SymFunc, TensorElem, coproduct, hall,
                             phi_t, schur_expand_raw, to_polynomial)
from dualgroth.tpoly import ONE, T, ZERO, TPoly
from mobius_oracle import is_rook_strip


def test_inverse_image_of_skew_shapes():
    # both rook-strip expansions of the inverse image of a skew g
    for la in partitions_up_to(5):
        for mu in subpartitions(la):
            img = op_I_inv(g_skew(la, mu))
            outer_form = SymFunc.zero()
            inner_form = SymFunc.zero()
            for nu in interval(mu, la):
                if is_rook_strip(la, nu):
                    outer_form = outer_form + g_skew(nu, mu).scale(
                        (-1) ** (size(la) - size(nu)))
                if is_rook_strip(nu, mu):
                    inner_form = inner_form + g_skew(la, nu).scale(
                        (-1) ** (size(nu) - size(mu)))
            assert img == outer_form == inner_form, (la, mu)


def test_deformed_perps_on_skew_shapes():
    for la in partitions_up_to(5):
        for mu in subpartitions(la):
            f = g_skew(la, mu)
            img = H_perp(T, f)
            by_outer = SymFunc.zero()
            by_inner = SymFunc.zero()
            for nu in interval(mu, la):
                by_outer = by_outer + g_skew(nu, mu).scale(T ** column_count(la, nu))
                by_inner = by_inner + g_skew(la, nu).scale(T ** column_count(nu, mu))
            assert img == by_outer == by_inner, (la, mu)

            img_e = E_perp(T, f)
            by_outer = SymFunc.zero()
            by_inner = SymFunc.zero()
            for nu in interval(mu, la):
                if is_vertical_strip(la, nu):
                    n, c = size(la) - size(nu), column_count(la, nu)
                    by_outer = by_outer + g_skew(nu, mu).scale(
                        (T ** c) * ((T + ONE) ** (n - c)))
                if is_vertical_strip(nu, mu):
                    n, c = size(nu) - size(mu), column_count(nu, mu)
                    by_inner = by_inner + g_skew(la, nu).scale(
                        (T ** c) * ((T + ONE) ** (n - c)))
            assert img_e == by_outer == by_inner, (la, mu)


def _tensor_of(f, g):
    out = {}
    for a, ca in f.terms.items():
        for b, cb in g.terms.items():
            out[(a, b)] = ca * cb
    return TensorElem(out)


def test_pairing_is_one_variable_substitution():
    # (H(t), f) equals f(t, 0, 0, ...) for arbitrary f, not just basis g's
    rng = random.Random(23)
    pool = partitions_up_to(5)
    for _ in range(20):
        terms = {}
        for _ in range(4):
            la = pool[rng.randrange(len(pool))]
            terms[la] = terms.get(la, ZERO) + TPoly.const(rng.randint(-3, 3))
        f = SymFunc(terms)
        value = hall(H_series(f.degree()), f)
        one_var = to_polynomial(f, 1)
        direct = ZERO
        for exp, c in one_var.terms.items():
            direct = direct + c * T ** exp[0]
        assert value == direct


def test_phi_t_moves_series_parameter():
    for N in range(5):
        assert phi_t(H_series(N, 1)) == H_series(N)


def test_power_sum_evaluations():
    from dualgroth.schur import p_gen
    for k in range(1, 6):
        poly = to_polynomial(p_gen(k), 3)
        want = {tuple(k if i == j else 0 for i in range(3)): ONE for j in range(3)}
        assert poly.terms == want


def test_variable_reduction_on_size_8_shapes():
    # the reduced-variable lift agrees with the full |shape|-variable lift
    # on shapes past the exhaustive sweep
    for la in ((4, 3, 1), (2, 2, 2, 2), (3, 3, 2), (5, 2, 1)):
        n_full = size(la)
        full = schur_expand_raw(rpp_generating_poly(la, (), n_full), n_full)
        assert {k: v.as_int() for k, v in g_to_schur(la).terms.items()} == full


def test_duality_of_large_series_solve():
    # the series used by the degree-12 constants pairs correctly against
    # sampled g's of matching degree
    la = (5, 3, 2, 1)
    G = G_truncated(la, 12)
    for sigma in G.terms:
        assert contains(la, sigma)
    assert hall(G, g_to_schur(la)) == ONE
    for mu in partitions_of(11):
        if contains(la, mu) and mu != la:
            assert hall(G, g_to_schur(mu)) == ZERO
    rng = random.Random(29)
    twelves = [mu for mu in partitions_of(12) if len(mu) <= 7]
    sample = [mu for mu in twelves if contains(la, mu)]
    sample += [twelves[rng.randrange(len(twelves))] for _ in range(8)]
    for mu in sample:
        assert hall(G, g_to_schur(mu)) == ZERO, mu


def test_image_of_whole_interval_is_unitriangular():
    # coefficient of g_la in I(g_la) is 1; smaller shapes absorb the rest
    for la in partitions_up_to(5):
        expansion = schur_to_g(op_I(g_to_schur(la)))
        assert expansion[la] == ONE
        assert all(contains(mu, la) for mu in expansion)


def test_interval_map_intertwines_coproduct():
    # applying the substitution map inside either coproduct leg commutes
    # with taking the coproduct
    from dualgroth.schur import schur

    for la in partitions_up_to(4):
        lhs = coproduct(op_I(schur(la)))
        left_applied = TensorElem()
        right_applied = TensorElem()
        for (mu, nu), c in coproduct(schur(la)).terms.items():
            left_applied = left_applied + _tensor_of(
                op_I(SymFunc({mu: ONE})), SymFunc({nu: ONE})).scale(c)
            right_applied = right_applied + _tensor_of(
                SymFunc({mu: ONE}), op_I(SymFunc({nu: ONE}))).scale(c)
        assert lhs == left_applied == right_applied, la


def test_g_perp_annihilates_noncontaining_shapes():
    f = g_to_schur((2, 1))
    assert perp(G_truncated((3,), 3), f).is_zero()
    assert perp(G_truncated((1, 1, 1), 3), f).is_zero()
