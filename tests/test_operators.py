import random
from functools import cache

import pytest

from dualgroth import operators, schur as schur_module
from dualgroth.groth import G_truncated, g_skew, g_to_schur, schur_to_g
from dualgroth.operators import (E_perp, H_perp, IncidenceFn, _folded,
                                 apply_operator, expand_skew_sum,
                                 inc_convolve, inc_delta, inc_it, inc_jt,
                                 inc_mobius, inc_zeta, op_I, op_I_inv, perp,
                                 skew_pieri, telescoping_X, tilde_c, tilde_d)
from dualgroth.partitions import (column_count, contains, interval,
                                  is_vertical_strip, partitions_of,
                                  partitions_up_to, size, subpartitions)
from dualgroth.schur import (E_series, H_series, SymFunc, TruncSeries,
                             _branching, _skew, e_gen, h_gen, hall, p_gen,
                             schur, series_mul)
from dualgroth.tpoly import ONE, T, TPoly, ZERO, add_terms
from lr_oracle import lr_scan
from mobius_oracle import is_rook_strip, mobius
from pieri_oracle import skew_pieri_terms


def as_int_dict(expansion):
    return {la: c.as_int() for la, c in expansion.items()}


def test_functional_eval_stated_values():
    assert hall(H_series(6), g_to_schur((3, 2, 1))) == T ** 3
    assert hall(E_series(3), g_to_schur((1, 1, 1))) == T * (T + ONE) ** 2
    assert hall(E_series(2, -1), g_to_schur((2,))) == ZERO
    assert hall(E_series(0, -1), SymFunc.one()) == ONE
    with pytest.raises(ValueError):
        hall(H_series(1), schur((2,)))


def test_functional_values_on_generators():
    # substitution of a single 1: h_k -> 1, e_k -> 0 for k >= 2, p_k -> 1
    for k in range(6):
        assert hall(H_series(k, 1), h_gen(k)) == ONE
    for k in range(2, 6):
        assert hall(H_series(k, 1), e_gen(k)) == ZERO
    for k in range(1, 6):
        assert hall(H_series(k, 1), p_gen(k)) == ONE
    # alternating column series: e_i -> (-1)^i, h_i -> 0 for i >= 2, p_i -> -1
    for k in range(6):
        assert hall(E_series(k, -1), e_gen(k)) == TPoly.const((-1) ** k)
    for k in range(2, 6):
        assert hall(E_series(k, -1), h_gen(k)) == ZERO
    for k in range(1, 6):
        assert hall(E_series(k, -1), p_gen(k)) == TPoly.const(-1)
    # formal t versions
    for k in range(5):
        assert hall(H_series(k), h_gen(k)) == T ** k
        assert hall(E_series(k), e_gen(k)) == T ** k
    for k in range(2, 5):
        assert hall(H_series(k), e_gen(k)) == ZERO
        assert hall(E_series(k), h_gen(k)) == ZERO
    for k in range(1, 5):
        assert hall(H_series(k), p_gen(k)) == T ** k
        assert hall(E_series(k), p_gen(k)) == (T ** k) * ((-1) ** (k - 1))


def test_perp_examples():
    got = perp(G_truncated((1,), 3), g_to_schur((2, 1)))
    assert got == g_skew((2, 1), (1,))
    f = g_to_schur((2, 1)) + schur((1,)).scale(T)
    assert perp(TruncSeries.unit(3), f) == f
    assert perp(H_series(2, 1), g_to_schur((2,))) == \
        g_to_schur((2,)) + g_to_schur((1,)) + SymFunc.one()


def test_perp_cap_is_hard():
    with pytest.raises(ValueError):
        perp(H_series(1, 1), schur((2,)))


def test_op_I_matches_interval_sum():
    for la in partitions_up_to(6):
        expected = SymFunc.zero()
        for mu in subpartitions(la):
            expected = expected + g_to_schur(mu)
        assert op_I(g_to_schur(la)) == expected


def test_op_I_pushed_size_interval_sum():
    # the interval sum is built from elegant fillings, never from a perp
    la = (6, 5, 4, 3, 2, 1)
    total = SymFunc.zero()
    for mu in subpartitions(la):
        total = total + g_to_schur(mu)
    assert op_I(g_to_schur(la)) == total
    assert op_I_inv(total) == g_to_schur(la)


def _coproduct_scan_perp(F, f):
    """The perp through the whole coproduct: every tau inside sigma against
    every partition of the rest, kept only when tau is in F."""
    out = {}
    for sigma, c in f.terms.items():
        for tau in subpartitions(sigma):
            if tau not in F.terms:
                continue
            for rho in partitions_of(size(sigma) - size(tau)):
                k = lr_scan(sigma, tau, rho)
                if k:
                    out[rho] = out.get(rho, ZERO) + c * F.terms[tau] * k
    return SymFunc(out)


def test_perp_matches_coproduct_scan_up_to_8():
    for sigma in partitions_up_to(8):
        f = schur(sigma)
        n = size(sigma)
        assert H_perp(T, f) == _coproduct_scan_perp(H_series(n), f)
        assert E_perp(T, f) == _coproduct_scan_perp(E_series(n), f)
        G = G_truncated((2, 1), max(n, 3))
        assert perp(G, f) == _coproduct_scan_perp(G, f), sigma


T_VALUES = (T, 0, 1, -1, 2)


def _random_f(rng):
    # a few Schur terms of size <= 7 with t-polynomial coefficients
    shapes = partitions_up_to(7)
    return SymFunc({rng.choice(shapes): TPoly([rng.randint(-3, 3) for _ in range(3)])
                    for _ in range(rng.randint(1, 6))})


def test_h_e_perp_match_the_lr_route_up_to_8():
    # the branching rule against the perp of the truncated series, which
    # reads s_{sigma/tau} for each one-row (one-column) tau from _skew
    for sigma in partitions_up_to(8):
        f, n = schur(sigma), size(sigma)
        for t in T_VALUES:
            assert H_perp(t, f) == perp(H_series(n, t), f), (sigma, t)
            assert E_perp(t, f) == perp(E_series(n, t), f), (sigma, t)


def test_h_e_perp_match_the_lr_route_on_random_sums():
    rng = random.Random(11)
    fs = [_random_f(rng) for _ in range(30)]
    assert sum(len(f.terms) > 1 for f in fs) >= 20
    for f in fs:
        n = f.degree()
        for t in T_VALUES:
            assert_same_terms(H_perp(t, f).terms, perp(H_series(n, t), f).terms)
            assert_same_terms(E_perp(t, f).terms, perp(E_series(n, t), f).terms)
        assert op_I_inv(op_I(f)) == f
        assert op_I(op_I_inv(f)) == f


def test_h_e_perps_reach_no_lr_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("reached the LR route")

    monkeypatch.setattr(operators, "perp", refuse)
    monkeypatch.setattr(operators, "_skew", refuse)
    monkeypatch.setattr(schur_module, "_skew", refuse)
    f = g_to_schur((4, 2, 1)) + schur((3, 3)).scale(T)
    for t in T_VALUES:
        H_perp(t, f)
        E_perp(t, f)
    op_I(f)
    op_I_inv(f)


def test_branching_tables_and_folded_rows_are_read_only():
    table = _branching((3, 1))
    assert table == ({(3, 1): 1}, {(3,): 1, (2, 1): 1}, {(2,): 1, (1, 1): 1}, {(1,): 1})
    assert _branching(()) == ({(): 1},)
    with pytest.raises(TypeError):
        table[1][(3,)] = 5
    with pytest.raises(TypeError):
        table[1] = {}
    row = _folded((3, 1), -1)
    assert row == {(3, 1): 1, (3,): -1, (2, 1): -1, (2,): 1, (1, 1): 1, (1,): -1}
    with pytest.raises(TypeError):
        row[(3,)] = 7
    assert _folded((3, 1), 0) == {(3, 1): 1}
    assert _branching((3, 1)) == table and _folded((3, 1), -1) == row


def test_op_I_inv_matches_rook_strip_sum():
    for la in partitions_up_to(6):
        expected = SymFunc.zero()
        for mu in subpartitions(la):
            if is_rook_strip(la, mu):
                expected = expected + g_to_schur(mu).scale(
                    (-1) ** (size(la) - size(mu)))
        assert op_I_inv(g_to_schur(la)) == expected
        # single-box form: g_la minus the skew by one corner cell
        if la:
            assert op_I_inv(g_to_schur(la)) == g_to_schur(la) - g_skew(la, (1,))


def test_op_I_examples():
    got = as_int_dict(schur_to_g(op_I(g_to_schur((2, 1)))))
    assert got == {(): 1, (1,): 1, (2,): 1, (1, 1): 1, (2, 1): 1}
    assert op_I(SymFunc.one()) == SymFunc.one()
    got_inv = as_int_dict(schur_to_g(op_I_inv(g_to_schur((2, 1)))))
    assert got_inv == {(2, 1): 1, (2,): -1, (1, 1): -1, (1,): 1}


def test_perp_parameter_examples():
    assert H_perp(T, g_to_schur((2,))) == \
        g_to_schur((2,)) + g_to_schur((1,)).scale(T) + SymFunc.one().scale(T ** 2)
    assert E_perp(T, g_to_schur((1, 1))) == \
        g_to_schur((1, 1)) + g_to_schur((1,)).scale(T) + \
        SymFunc.one().scale(T * (T + ONE))
    f = schur((2, 1)) + schur((1,)).scale(T)
    assert H_perp(0, f) == f


def test_convolution():
    F = H_series(4)
    G = E_series(4, -T)
    assert series_mul(F, G) == TruncSeries.unit(4)
    assert series_mul(F, TruncSeries.unit(4)) == F
    # the convolution identity checked directly on g_(2,1)
    la, mu = (2, 1), ()
    total = ZERO
    for nu in interval(mu, la):
        a = hall(H_series(3, 1), g_skew(la, nu))
        b = hall(E_series(3, -1), g_skew(nu, mu))
        total = total + a * b
    assert total == ZERO
    conv = series_mul(H_series(3, 1), E_series(3, -1))
    assert hall(conv, g_to_schur((2, 1))) == ZERO


def test_apply_operator_dispatch():
    f = g_to_schur((2, 1))
    assert apply_operator("I", f) == op_I(f)
    assert apply_operator("Iinv", f) == op_I_inv(f)
    assert apply_operator("Hperp", f, t_param=TPoly.const(0)) == f
    assert apply_operator("Gperp", f, mu=(1,)) == g_skew((2, 1), (1,))
    with pytest.raises(ValueError):
        apply_operator("Gperp", f)
    with pytest.raises(ValueError):
        apply_operator("nope", f)


def test_incidence_basics():
    ground = (2, 2)
    zeta = inc_zeta(ground)
    assert zeta.value((1,), (2, 1)) == ONE
    delta = inc_delta(ground)
    mob = inc_mobius(ground)
    assert inc_convolve(zeta, mob) == delta
    assert inc_convolve(mob, zeta) == delta
    f = inc_it(ground)
    assert inc_convolve(f, delta) == f
    with pytest.raises(ValueError):
        inc_convolve(inc_zeta((2, 2)), inc_zeta((2, 1)))
    with pytest.raises(ValueError):
        IncidenceFn((1,), {(((2,), (2, 2))): ONE})


def test_incidence_it_jt_inverse():
    ground = (3, 2, 1)
    assert inc_convolve(inc_it(ground), inc_jt(ground)) == inc_delta(ground)
    assert inc_convolve(inc_jt(ground), inc_it(ground)) == inc_delta(ground)
    assert inc_it(ground).substitute(1) == inc_zeta(ground)
    jt1 = inc_jt(ground).substitute(1)
    assert jt1 == inc_mobius(ground)
    for mu in subpartitions(ground):
        for nu in subpartitions(ground):
            if mobius(mu, nu):
                assert jt1.value(mu, nu).as_int() == mobius(mu, nu)


def test_engine_built_incidence_functions_pass_the_checked_constructor():
    # the builders skip the constructor's checks; rebuilding through it
    # must keep every pair and value, so none holds a zero or a pair
    # outside the ground interval (j_t at t = 0 vanishes off the diagonal)
    for ground in subpartitions((4, 3, 2, 1))[1:]:
        it, jt = inc_it(ground), inc_jt(ground)
        jt0 = jt.substitute(0)
        built = [inc_delta(ground), inc_zeta(ground), inc_mobius(ground), it, jt,
                 inc_convolve(it, jt), inc_convolve(jt, inc_zeta(ground)),
                 it.substitute(2), jt0]
        for f in built:
            assert IncidenceFn(ground, f.values) == f, (ground, f)
        assert jt0.values.keys() < jt.values.keys(), ground


def _comparable_pairs(ground):
    return [(mu, nu) for nu in subpartitions(ground) for mu in subpartitions(nu)]


def _mobius_by_filter(ground):
    # oracle: the Moebius function on every comparable pair
    return IncidenceFn(ground, {(mu, nu): mobius(mu, nu)
                                for mu, nu in _comparable_pairs(ground)})


def _jt_by_filter(ground):
    # oracle: j_t on the comparable pairs that are vertical strips
    vals = {}
    for mu, la in _comparable_pairs(ground):
        if is_vertical_strip(la, mu):
            n, c = size(la) - size(mu), column_count(la, mu)
            vals[(mu, la)] = T ** c * (T - ONE) ** (n - c) * (-1) ** n
    return IncidenceFn(ground, vals)


def test_mobius_and_jt_match_the_filter_over_comparable_pairs():
    for ground in subpartitions((5, 4, 3, 2, 1)):
        assert inc_mobius(ground) == _mobius_by_filter(ground), ground
        assert inc_jt(ground) == _jt_by_filter(ground), ground


@cache
def _intervals(ground):
    return [(mu, la, interval(mu, la))
            for la in subpartitions(ground) for mu in subpartitions(la)]


def _convolve_by_intervals(f, g):
    # oracle: scan the interval [mu, la] of every comparable pair
    out = {}
    for mu, la, between in _intervals(f.ground):
        s = ZERO
        for nu in between:
            a = f.value(mu, nu)
            if a.is_zero():
                continue
            b = g.value(nu, la)
            if not b.is_zero():
                s = s + a * b
        if not s.is_zero():
            out[(mu, la)] = s
    return IncidenceFn(f.ground, out)


def _random_incidence(rng, ground):
    pairs = [(mu, la) for mu, la, _ in _intervals(ground)]
    return IncidenceFn(ground, {pair: TPoly((rng.randint(-2, 2), rng.randint(-2, 2)))
                                for pair in rng.sample(pairs, len(pairs) // 4)})


def test_convolution_matches_interval_scan():
    rng = random.Random(14)
    for ground in ((), (1,), (2, 1), (3, 2, 1), (4, 3, 2, 1)):
        fns = [make(ground) for make in (inc_delta, inc_zeta, inc_mobius,
                                         inc_it, inc_jt)]
        fns += [_random_incidence(rng, ground) for _ in range(3)]
        for f in fns:
            for g in fns:
                assert inc_convolve(f, g) == _convolve_by_intervals(f, g), ground


def test_telescoping():
    for q in range(1, 11):
        assert telescoping_X(q) == ZERO
    with pytest.raises(ValueError):
        telescoping_X(0)


def test_skew_pieri_examples():
    assert skew_pieri(0, (3, 1), (2,)) == {((3, 1), (2,)): 1}
    got = skew_pieri(1, (1,), ())
    assert got == {((2,), ()): 1, ((1, 1), ()): 1, ((1,), ()): -1}
    with pytest.raises(ValueError):
        skew_pieri(1, (1,), (2,))
    with pytest.raises(ValueError):
        skew_pieri(-1, (1,), ())


def test_skew_pieri_matches_product():
    for mu in partitions_up_to(4):
        for nu in subpartitions(mu):
            for k in range(4):
                lhs = h_gen(k) * g_skew(mu, nu)
                rhs = expand_skew_sum(skew_pieri(k, mu, nu))
                assert lhs == rhs, (k, mu, nu)


def test_skew_pieri_matches_term_oracle():
    # the cached strip tables give the term-by-term rule's dict, keys in
    # the same order
    for mu in partitions_up_to(6):
        for nu in subpartitions(mu):
            for k in range(5):
                got = skew_pieri(k, mu, nu)
                assert list(got.items()) == list(skew_pieri_terms(k, mu, nu).items()), (k, mu, nu)


def test_skew_pieri_result_is_the_callers_own():
    first = skew_pieri(2, (2, 1), (1,))
    want = dict(first)
    first.clear()
    first[((9,), ())] = 5
    assert skew_pieri(2, (2, 1), (1,)) == want


def test_skew_pieri_reads_k_as_an_integer():
    for k in ("2", 1.5, None):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            skew_pieri(k, (1,), ())


def test_expand_skew_sum_reads_coefficients_through_the_ring():
    g21 = g_skew((2, 1))
    got = expand_skew_sum({((2, 1), ()): T})
    assert got == T * g21
    assert all(type(x) is int for c in got.terms.values() for x in c.coeffs)
    formal = {((2, 1), ()): T, ((2,), ()): 3, ((1,), ()): -1, ((3, 1), (1,)): T - 2,
              ((2, 2), (1,)): 3}
    want = SymFunc.zero()
    for (la, eta), c in formal.items():
        want = want + g_skew(la, eta).scale(c)
    assert_same_terms(expand_skew_sum(formal).terms, want.terms)
    with pytest.raises(TypeError):
        expand_skew_sum({((2, 1), ()): 1.5})
    with pytest.raises(TypeError):
        expand_skew_sum({((2, 1), ()): 1, ((2,), ()): 1.0})


def test_skew_pieri_reproduces_worked_expansion():
    # accumulating the rule over the interval reproduces the seven-term
    # expansion of g_(3,2,1)/(1)
    target = as_int_dict(schur_to_g(g_skew((3, 2, 1), (1,))))
    assert target == {(3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1,
                      (3, 1): -1, (2, 2): -1, (2, 1, 1): -1, (2, 1): 1}
    # the rule applied at the worked shape itself stays consistent with the
    # direct product, so chaining it through the interval terminates on the
    # same straight-shape data
    formal = skew_pieri(1, (3, 2, 1), (1,))
    assert expand_skew_sum(formal) == h_gen(1) * g_skew((3, 2, 1), (1,))
    assert any(eta == () for (_, eta) in formal)


def test_tilde_counterexamples():
    assert tilde_c((5, 3, 2, 2, 1), (3, 2, 1), (3, 2, 1)) == -1
    assert tilde_d((5, 3, 2, 1), (3, 2, 1), (3, 2, 1)) == -1


def test_tilde_c_unitriangular_diagonal():
    for la in partitions_up_to(4):
        assert tilde_c(la, (), la) == 1


def test_tilde_c_two_routes_agree():
    from dualgroth.groth import c_coeff
    for la in partitions_up_to(5):
        for mu in subpartitions(la):
            for nu in partitions_up_to(size(la) - size(mu)):
                outer_route = tilde_c(la, mu, nu)
                inner_route = sum(c_coeff(kappa, mu, nu)
                                  for kappa in interval(mu, la))
                assert outer_route == inner_route, (la, mu, nu)


def test_tilde_c_matches_outer_interval_sum():
    # oracle: expand the sum of g_{la/kappa} over kappa in [mu, la] in g
    count = 0
    for la in partitions_up_to(7):
        for mu in subpartitions(la):
            acc = {}
            for kappa in interval(mu, la):
                add_terms(acc, g_skew(la, kappa).terms.items())
            expansion = as_int_dict(schur_to_g(SymFunc()._like(acc)))
            for nu in partitions_up_to(size(la) - size(mu)):
                assert tilde_c(la, mu, nu) == expansion.get(nu, 0), (la, mu, nu)
                count += 1
    assert count == 4283


def test_tilde_c_zero_off_the_interval():
    # the interval [mu, la] is empty unless mu sits inside la
    small = partitions_up_to(4)
    for la in small:
        for mu in small:
            if contains(mu, la):
                continue
            for nu in small:
                assert tilde_c(la, mu, nu) == 0, (la, mu, nu)


def test_tilde_d_matches_double_pairing_sum():
    # oracle: the definition, the sum over alpha in mu and beta in nu of
    # d(la, alpha, beta), each d the pairing of g_alpha g_beta against G_la
    nonzero = 0
    for mu in partitions_up_to(3):
        for nu in partitions_up_to(3):
            for la in partitions_up_to(size(mu) + size(nu) + 1):
                want = sum(hall(G_truncated(la, size(alpha) + size(beta)),
                                g_to_schur(alpha) * g_to_schur(beta)).as_int()
                           for alpha in subpartitions(mu)
                           for beta in subpartitions(nu)
                           if size(la) <= size(alpha) + size(beta))
                assert tilde_d(la, mu, nu) == want, (la, mu, nu)
                nonzero += bool(want)
    assert nonzero == 483


def test_tilde_d_above_the_product_degree_builds_nothing(monkeypatch):
    def boom(*args):
        raise AssertionError("tilde_d built a product for a zero")

    monkeypatch.setattr(operators, "_g_coordinate", boom)
    monkeypatch.setattr(operators, "g_to_schur", boom)
    assert tilde_d((3,), (1,), (1,)) == 0
    assert tilde_d((7, 6, 5, 4, 3, 2, 1), (4, 3, 2, 1), (4, 3, 2, 1)) == 0


def test_tilde_d_cuts_mu_and_nu_to_la(monkeypatch):
    # d(la, alpha, beta) is 0 unless alpha and beta sit inside la, so the
    # product is built from the intersections of mu and nu with la
    built = []
    monkeypatch.setattr(operators, "g_to_schur", lambda mu: built.append(mu) or g_to_schur(mu))
    staircase = (4, 3, 2, 1)
    assert tilde_d((2, 1), staircase, staircase) == 1
    assert tilde_d((3, 3), staircase, (1,)) == 1
    assert built == [(2, 1), (2, 1), (3, 3), (1,)]


def test_perp_operators_commute():
    f = g_to_schur((3, 1))
    a = perp(G_truncated((1,), 4), op_I(f))
    b = op_I(perp(G_truncated((1,), 4), f))
    assert a == b


def test_functional_equality_and_series_mul_cap():
    F = H_series(4, 1)
    G = H_series(4, 1)
    assert F == G
    assert series_mul(F, E_series(2, -1)).cap == 2


def assert_same_terms(got, want):
    assert got == want
    for c in got.values():
        assert type(c) is TPoly and c.coeffs and c.coeffs[-1] != 0


def _perp_per_term(F, f):
    # perp with one TPoly product per skew-table entry
    return add_terms({}, ((rho, c * a * k) for sigma, c in f.terms.items()
                          for tau, a in F.terms.items() if contains(tau, sigma)
                          for rho, k in _skew(sigma, tau).items()))


def test_grouped_perp_matches_per_term_oracle():
    # t s_mu - t s_nu: the rows c*a = +-t*F_tau meet on the shapes both
    # skews reach and cancel there
    shapes = partitions_up_to(5)
    series = [H_series(5, v) for v in (T, -1, 2)]
    series += [E_series(5, v) for v in (T, -1, 2)]
    series.append(G_truncated((2, 1), 5))
    for mu in shapes:
        for nu in shapes:
            f = (schur(mu) - schur(nu)).scale(T)
            for F in series:
                got = perp(F, f)
                assert type(got) is SymFunc
                assert_same_terms(got.terms, _perp_per_term(F, f))


def test_grouped_skew_sum_matches_per_term_oracle():
    for mu in partitions_up_to(4):
        for nu in subpartitions(mu):
            for k in range(4):
                formal = skew_pieri(k, mu, nu)
                want = add_terms({}, ((rho, c * a) for (la, eta), c in formal.items()
                                      for rho, a in g_skew(la, eta).terms.items()))
                assert_same_terms(expand_skew_sum(formal).terms, want)
