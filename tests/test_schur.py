import random
import time
from functools import cache
from itertools import permutations, product
from math import comb
from operator import add, mul, sub
from types import ModuleType

import pytest

from dualgroth import schur as schur_module
from dualgroth.partitions import (contains, horizontal_strip_additions,
                                  partitions_of, partitions_up_to, size,
                                  sort_key, subpartitions, transpose)
from dualgroth.schur import (E_series, H_series, SymFunc, TensorElem,
                             TruncSeries, _coproduct_pairs, _kostka, _mul_pair,
                             _skew,
                             antipode, coproduct, e_gen, h_gen, hall,
                             is_group_like, lr_coeff, p_gen, phi_t,
                             raw_is_symmetric, schur, schur_expand_raw,
                             series_mul, ssyt_poly, to_polynomial, truncate)
from dualgroth.groth import G_truncated, _fillings, schur_to_g
from dualgroth.operators import perp
from dualgroth.tpoly import MultiPoly, ONE, T, TPoly, ZERO, add_terms, sum_rows
from lift_oracle import peel_lift
from lr_oracle import hook_syt_count, lr_scan, skew_syt_count


def random_symfunc(rng, max_deg, nterms=3, with_t=False):
    pool = partitions_up_to(max_deg)
    terms = {}
    for _ in range(nterms):
        la = pool[rng.randrange(len(pool))]
        c = TPoly((rng.randint(-3, 3), rng.randint(-2, 2) if with_t else 0))
        terms[la] = terms.get(la, ZERO) + c
    return SymFunc(terms)


def test_generator_examples():
    assert h_gen(2) == schur((2,))
    assert h_gen(0) == SymFunc.one()
    assert e_gen(3) == schur((1, 1, 1))
    assert e_gen(0) == SymFunc.one()
    assert p_gen(2) == schur((2,)) - schur((1, 1))
    with pytest.raises(ValueError):
        p_gen(0)
    with pytest.raises(ValueError):
        h_gen(-1)


def test_p2_against_power_sum_evaluation():
    # independent oracle: p_2 restricted to two variables is x1^2 + x2^2
    assert to_polynomial(p_gen(2), 2) == MultiPoly(2, {(2, 0): 1, (0, 2): 1})
    assert to_polynomial(p_gen(3), 2) == MultiPoly(2, {(3, 0): 1, (0, 3): 1})


def test_lr_coeff_examples():
    assert lr_coeff((2,), (1,), (1,)) == 1
    assert lr_coeff((2, 1), (1,), (1, 1)) == 1
    assert lr_coeff((3,), (1,), (1,)) == 0
    assert lr_coeff((2, 1), (1,), (1,)) == 0
    assert lr_coeff((2, 1), (2,), (1,)) == 1
    assert lr_coeff((4, 2), (2, 1), (2, 1)) == 1


def test_lr_symmetries_up_to_6():
    for la in partitions_up_to(6):
        n = size(la)
        for mu in subpartitions(la):
            for nu in partitions_of(n - size(mu)):
                c = lr_scan(la, mu, nu)
                assert c == lr_scan(la, nu, mu)
                assert c == lr_scan(transpose(la), transpose(mu), transpose(nu))


def staircase(n):
    return tuple(range(n, 0, -1))


def test_lr_coeff_matches_scan():
    # every triple with |la| <= 8 and |mu| + |nu| <= 9, size mismatches and
    # factors outside la included
    for la in partitions_up_to(8):
        for mu in partitions_up_to(9):
            for nu in partitions_up_to(9 - size(mu)):
                assert lr_coeff(la, mu, nu) == lr_scan(la, mu, nu), (la, mu, nu)
    for la, mu, nu, value in [
            (staircase(8), (4, 3, 2, 1), (7, 6, 5, 4, 3, 1), 120),
            (staircase(8), staircase(5), staircase(6), 640),
            (staircase(9), staircase(6), (7, 6, 5, 3, 2, 1), 3700),
            (staircase(10), staircase(5), (10, 8, 7, 6, 5, 4), 120)]:
        assert lr_coeff(la, mu, nu) == lr_scan(la, mu, nu) == value
    # the scan's value, pinned: the scan takes about 0.4 s here
    assert lr_coeff(staircase(10), staircase(7), (7, 6, 5, 4, 3, 2)) == 36624
    # long rows and columns, past the scan's recursion limit
    column = (1,) * 1000
    assert lr_coeff((2000,), (1000,), (1000,)) == 1
    assert lr_coeff(column * 2, column, column) == 1
    assert lr_coeff((2000,), (1000,), (999,)) == 0


def test_mul_pair_matches_lr_scan_up_to_8():
    # oracle: the scan on every partition of |mu| + |nu|
    for n in range(9):
        for m in range(n + 1):
            for mu in partitions_of(m):
                for nu in partitions_of(n - m):
                    scan = {la: lr_scan(la, mu, nu) for la in partitions_of(n)
                            if contains(mu, la) and contains(nu, la)}
                    want = {la: c for la, c in scan.items() if c}
                    assert dict(_mul_pair(mu, nu)) == want
                    assert list(_mul_pair(mu, nu)) == list(want)


def test_coproduct_pairs_match_scan_up_to_8():
    # oracle: every tau inside sigma against every partition of the rest
    for sigma in partitions_up_to(8):
        want = {}
        for tau in subpartitions(sigma):
            for rho in partitions_of(size(sigma) - size(tau)):
                if contains(rho, sigma):
                    c = lr_scan(sigma, tau, rho)
                    if c:
                        want[(tau, rho)] = c
        assert dict(_coproduct_pairs(sigma)) == want


def test_skew_matches_lr_scan_up_to_9():
    # oracle: the scan on every partition of the complementary size, whose
    # canonical order the transfer's output keeps
    for sigma in partitions_up_to(9):
        for tau in subpartitions(sigma):
            scan = {rho: lr_scan(sigma, tau, rho)
                    for rho in partitions_of(size(sigma) - size(tau))}
            want = [(rho, c) for rho, c in scan.items() if c]
            assert list(_skew(sigma, tau).items()) == want
    assert not _skew((2, 1), (3,)) and not _skew((2, 1), (1, 1, 1))


@pytest.mark.parametrize("sigma", [(2, -1), (2, 1, -1)])
def test_skew_fails_fast_on_a_part_below_one(sigma):
    # (2, -1) leaves a negative count in the packed content, which never
    # unpacks to zero; (2, 1, -1) unpacks to a content that is no partition
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="part below 1"):
        _skew(sigma, (1,))
    assert time.perf_counter() - start < 1


def test_skew_and_products_at_pushed_sizes_by_dimension():
    # too large for the lattice-word scan; counting standard fillings gives
    # sum_rho c_rho f^rho = f^{sigma/tau} and, for products,
    # sum_la c_la f^la = C(n, |mu|) f^mu f^nu
    sigma, tau = (8, 7, 6, 5, 4, 3, 2, 1), (4, 3, 2, 1)
    expansion = _skew(sigma, tau)
    assert len(expansion) > 100
    assert sum(c * hook_syt_count(rho) for rho, c in expansion.items()) \
        == skew_syt_count(sigma, tau)
    for mu, nu in [((6, 4, 2), (5, 4, 2, 1)), ((4, 3, 2, 1), (5, 4, 3, 2)),
                   ((3, 3, 3, 3), (4, 4, 2, 1, 1)), ((9, 5), (4, 3, 2, 1))]:
        n = size(mu) + size(nu)
        assert n == 24
        for pair in ((mu, nu), (nu, mu)):
            assert_product_dimension(*pair)
    # the square of the staircase, degree 42
    stair = (6, 5, 4, 3, 2, 1)
    assert len(assert_product_dimension(stair, stair)) == 10873
    assert skew_syt_count((3, 2), (1,)) == 5 and hook_syt_count((3, 2)) == 5


def assert_product_dimension(mu, nu):
    terms = _mul_pair(mu, nu)
    want = comb(size(mu) + size(nu), size(mu)) * hook_syt_count(mu) * hook_syt_count(nu)
    assert sum(c * hook_syt_count(la) for la, c in terms.items()) == want
    assert list(terms) == sorted(terms, key=sort_key)
    return terms


@pytest.mark.parametrize("j", range(7))
def test_packed_content_holds_a_full_count(j):
    # a row of n = 2**j cells puts n into one field of the packed content,
    # which takes every one of the n.bit_length() bits; the Pieri rule
    # gives h_a h_(n-a) and e_a e_(n-a)
    n = 2 ** j
    assert dict(_skew((n,), ())) == {(n,): 1}
    assert dict(_skew((1,) * n, ())) == {(1,) * n: 1}
    for a in range(n + 1):
        h_a, h_b = (a,) if a else (), (n - a,) if n - a else ()
        rows = {tuple(x for x in (n - k, k) if x): 1 for k in range(min(a, n - a) + 1)}
        assert dict(_mul_pair(*sorted((h_a, h_b)))) == rows
        cols = {transpose(la): 1 for la in rows}
        assert dict(_mul_pair(*sorted((transpose(h_a), transpose(h_b))))) == cols


@pytest.mark.parametrize("table, args, key", [
    (_mul_pair, ((2, 1), (2,)), (4, 1)),
    (_coproduct_pairs, ((2, 1),), ((1,), (1, 1))),
    (_skew, ((3, 2, 1), (2,)), (2, 2)),
    (_skew, ((3, 2, 1), (2, 1)), (3,)),
    (ssyt_poly, ((1,), 2), (1, 0)),
    (_kostka, ((3, 2, 1),), (2, 2, 2)),
])
def test_cached_tables_are_read_only(table, args, key):
    first = dict(table(*args))
    with pytest.raises(TypeError):
        table(*args)[key] = 5
    assert dict(table(*args)) == first


def test_schur_keys_are_partitions():
    assert schur((1, 0)) == schur((1,))
    assert schur((1, 0)) * schur((1,)) == schur((2,)) + schur((1, 1))
    assert SymFunc({(2, 1, 0): 1, (2, 1): T}) == schur((2, 1)).scale(T + 1)
    assert SymFunc({(1, 0): 1, (1,): -1}).is_zero()
    for bad in ((1, 2), (1, -1), (0, 1)):
        with pytest.raises(ValueError):
            schur(bad)
        with pytest.raises(ValueError):
            SymFunc({bad: 1})


def test_coeff_and_series_keys_are_partitions():
    # coefficient queries and series keys read through as_partition too
    assert schur((1,)).coeff((1, 0)) == ONE
    assert TruncSeries(3, {(1, 0): 1}) == TruncSeries(3, {(1,): 1})
    assert TruncSeries(3, {(1,): 1}).coeff((1, 0)) == ONE
    assert coproduct(schur((2,))).coeff((1, 0), (1,)) == ONE
    # a bad key raises whether or not its size fits under the cap
    for cap in (3, 2):
        with pytest.raises(ValueError):
            TruncSeries(cap, {(1, 2): 1})


def test_mul_examples():
    s1 = schur((1,))
    assert s1 * s1 == schur((2,)) + schur((1, 1))
    assert s1 * schur((2,)) == schur((3,)) + schur((2, 1))
    f = schur((2, 1)) + schur((1,)).scale(T)
    assert f * SymFunc.one() == f


def test_mul_matches_polynomial_multiplication():
    # independent oracle: multiply the evaluations in enough variables
    rng = random.Random(7)
    for _ in range(15):
        f = random_symfunc(rng, 3)
        g = random_symfunc(rng, 3)
        n = max(1, f.degree() + g.degree())
        lhs = to_polynomial(f * g, n)
        product = {}
        for e1, c1 in to_polynomial(f, n).terms.items():
            add_terms(product, ((tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                                for e2, c2 in to_polynomial(g, n).terms.items()))
        rhs = MultiPoly(n, product)
        assert lhs == rhs


def test_mul_row_case_is_pieri():
    for mu in partitions_up_to(4):
        for k in range(4):
            prod = schur(mu) * h_gen(k)
            expected = SymFunc.zero()
            for la in horizontal_strip_additions(mu, k):
                expected = expected + schur(la)
            assert prod == expected


def test_coproduct_examples():
    d = coproduct(schur((1,)))
    assert d == TensorElem({((), (1,)): 1, ((1,), ()): 1})
    assert coproduct(SymFunc.one()) == TensorElem({((), ()): 1})
    d2 = coproduct(schur((2,)))
    assert d2 == TensorElem({((), (2,)): 1, ((1,), (1,)): 1, ((2,), ()): 1})


def test_coproduct_counit_axiom():
    rng = random.Random(2)
    for _ in range(10):
        f = random_symfunc(rng, 4, with_t=True)
        d = coproduct(f)
        left = SymFunc.zero()
        for (mu, nu), c in d.terms.items():
            if mu == ():
                left = left + schur(nu).scale(c)
        assert left == f


def test_coproduct_cocommutative():
    rng = random.Random(3)
    for la in partitions_up_to(5):
        d = coproduct(schur(la))
        assert d.swap() == d
    for _ in range(5):
        f = random_symfunc(rng, 4, with_t=True)
        d = coproduct(f)
        assert d.swap() == d


def test_bialgebra_compatibility():
    rng = random.Random(4)
    for _ in range(10):
        f = random_symfunc(rng, 3)
        g = random_symfunc(rng, 3)
        assert coproduct(f * g) == coproduct(f) * coproduct(g)


def test_self_duality_pairing():
    # (fg, h) agrees with pairing f (x) g against the coproduct of h
    rng = random.Random(8)
    for _ in range(10):
        f = random_symfunc(rng, 3)
        g = random_symfunc(rng, 3)
        h = random_symfunc(rng, 4, with_t=True)
        lhs = hall(f * g, h)
        rhs = ZERO
        for (mu, nu), c in coproduct(h).terms.items():
            rhs = rhs + f.coeff(mu) * g.coeff(nu) * c
        assert lhs == rhs


def test_antipode_examples():
    assert antipode(schur((2,))) == schur((1, 1))
    assert antipode(schur((1,))) == schur((1,)).scale(-1)


def test_antipode_axiom_up_to_5():
    from dualgroth.schur import _coproduct_pairs
    for la in partitions_up_to(5):
        total = SymFunc.zero()
        for (tau, rho), k in _coproduct_pairs(la).items():
            total = total + (antipode(schur(tau)) * schur(rho)).scale(k)
        assert total == (SymFunc.one() if not la else SymFunc.zero())


def test_hall_examples():
    assert hall(schur((2, 1)), schur((2, 1))) == ONE
    assert hall(schur((2,)), schur((1, 1))) == ZERO
    assert hall(H_series(3), schur((2,))) == T ** 2
    with pytest.raises(ValueError):
        hall(H_series(1), schur((2,)))


def test_from_polynomial_examples():
    # the lift schur_expand_raw, on int and on TPoly coefficients
    assert schur_expand_raw({(1, 1): 1}, 2) == {(1, 1): 1}
    assert schur_expand_raw({(2, 0): 1, (1, 1): 1, (0, 2): 1}, 2) == {(2,): 1}
    assert schur_expand_raw({(2, 0): 1, (0, 2): 1}, 2) == {(2,): 1, (1, 1): -1}
    with pytest.raises(ValueError):
        schur_expand_raw({(2, 0): 1}, 2)
    # each monomial's sort carries its coefficient, but x2^2 is missing:
    # only the orbit count sees it
    with pytest.raises(ValueError):
        schur_expand_raw({(2, 0): 1, (1, 1): 1}, 2)
    # t*x1 + x2 is not symmetric, t*(x1 + x2) is t*s_1
    with pytest.raises(ValueError):
        schur_expand_raw({(1, 0): T, (0, 1): ONE}, 2)
    assert schur_expand_raw({(1, 0): T, (0, 1): T}, 2) == {(1,): T}


def test_lift_raises_exactly_on_asymmetric_input():
    # raw_is_symmetric is the independent oracle for the lift's verdict,
    # and the peel over whole Schur polynomials for its terms and their
    # order; int and TPoly coefficients, and symmetrizing about half the
    # dicts makes both outcomes common
    rng = random.Random(31)
    seen = set()
    for _ in range(3000):
        n = rng.randint(1, 4)
        p = {}
        for _ in range(rng.randint(1, 4)):
            exp = tuple(rng.randint(0, 3) for _ in range(n))
            c = rng.randint(-2, 2)
            if rng.random() < 0.5:
                c = TPoly((c, rng.randint(-2, 2)))
            orbit = set(permutations(exp)) if rng.random() < 0.5 else {exp}
            add_terms(p, ((e, c) for e in orbit))
        symmetric = raw_is_symmetric(p, n)
        seen.add(symmetric)
        if not symmetric:
            with pytest.raises(ValueError):
                schur_expand_raw(p, n)
            with pytest.raises(ValueError):
                peel_lift(p, n)
            continue
        lift = schur_expand_raw(p, n)
        assert list(lift.items()) == list(peel_lift(p, n).items()), (p, n)
        back = {}
        for la, c in lift.items():
            add_terms(back, ((e, c * k) for e, k in ssyt_poly(la, n).items()))
        assert back == {e: c for e, c in p.items() if c}
    assert seen == {False, True}


def test_lift_fails_fast_on_a_wrong_schur_polynomial(monkeypatch):
    # without the strip of sigma_1 cells in each branching table, the
    # Kostka row of (2, 2) lacks K_(2,2),(2,2) = 1, so the leading term
    # x1^2 x2^2 never cancels: the lift must raise at once instead of
    # looping
    p = dict(ssyt_poly((2, 2), 3))
    real = schur_module._branching.__wrapped__
    ssyt_poly.cache_clear()
    _kostka.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(schur_module, "_branching", cache(lambda la: real(la)[:-1]))
            start = time.perf_counter()
            with pytest.raises(RuntimeError, match=r"s_\(2, 2\)"):
                schur_expand_raw(p, 3)
            assert time.perf_counter() - start < 1
    finally:
        ssyt_poly.cache_clear()
        _kostka.cache_clear()


def test_to_polynomial_examples():
    assert to_polynomial(schur((1, 1)), 1).is_zero()
    assert to_polynomial(schur((2,)), 2) == MultiPoly(
        2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert to_polynomial(schur((2, 1)), 2) == MultiPoly(2, {(2, 1): 1, (1, 2): 1})
    with pytest.raises(ValueError):
        to_polynomial(schur((1,)), 0)


def test_polynomial_round_trip():
    rng = random.Random(9)
    for la in partitions_up_to(5):
        assert schur_expand_raw(to_polynomial(schur(la), 5).terms, 5) == {la: ONE}
    for _ in range(10):
        f = random_symfunc(rng, 4, with_t=True)
        assert SymFunc(schur_expand_raw(to_polynomial(f, 4).terms, 4)) == f


def test_phi_t_examples():
    assert phi_t(schur((2, 1))) == schur((2, 1)).scale(T ** 3)
    assert phi_t(SymFunc.one()) == SymFunc.one()


def test_phi_t_self_adjoint():
    rng = random.Random(10)
    for _ in range(10):
        f = random_symfunc(rng, 4)
        g = random_symfunc(rng, 4)
        assert hall(phi_t(f), g) == hall(f, phi_t(g))


def test_series_examples():
    assert H_series(2) == TruncSeries(2, {(): 1, (1,): T, (2,): T ** 2})
    assert E_series(0) == TruncSeries.unit(0)
    assert series_mul(H_series(4), E_series(4, -T)) == TruncSeries.unit(4)
    for series in (H_series, E_series):
        # t = 0 leaves only the constant term, with no zero coefficients
        assert series(3, 0).terms == {(): ONE}
        assert series(2, -1).terms == series(2, TPoly.const(-1)).terms


def test_series_min_cap():
    F = H_series(5)
    G = E_series(3)
    assert series_mul(F, G).cap == 3
    for total in (F + G, G + F, F - G):
        assert total.cap == 3
        assert max(size(la) for la in total.terms) == 3
    assert (-F).cap == F.scale(T).cap == 5
    assert not isinstance(F, SymFunc)
    G = TruncSeries(2, {(1,): 1, (1, 1): 3, (2,): -T ** 2})
    want = TruncSeries(2, {(): 1, (1,): T + 1, (1, 1): 3})
    assert F + G == want and G + F == want
    assert (F - G).terms == {(): ONE, (1,): T - 1, (2,): 2 * T ** 2, (1, 1): TPoly.const(-3)}
    assert (F - F).is_zero()


@pytest.mark.parametrize("f", [
    schur((2, 1)) + schur((1,)).scale(T),
    H_series(3),
    TensorElem({((1,), ()): T, ((), (1,)): 2}),
    MultiPoly(2, {(1, 0): T, (0, 1): 1}),
])
def test_lincomb_minus_itself_is_zero(f):
    zero = f - f
    assert zero.is_zero() and type(zero) is type(f)
    assert zero == f + (-f) == f.scale(0)
    assert f + zero == f


def test_schur_submodule_not_shadowed():
    import dualgroth.schur as m
    assert isinstance(m, ModuleType)


def test_truncate_checks_cap():
    f = schur((2, 1))
    assert truncate(f, 5).cap == 5
    with pytest.raises(ValueError):
        truncate(f, 2)


# One rule for how a polynomial meets a series, in the classes: the
# polynomial is truncated at the series' cap, two series meet at the
# smaller cap, and a product of series is series_mul.
def _as_series(x, cap):
    return x if isinstance(x, TruncSeries) else truncate(x, cap)


def test_a_polynomial_meets_a_series_at_its_cap():
    G = G_truncated((1,), 3)
    values = [schur((1,)), schur((1,)).scale(T), G]
    for a in values:
        for b in values:
            if G not in (a, b):
                continue
            A, B = _as_series(a, 3), _as_series(b, 3)
            for op, want in ((add, A + B), (sub, A - B), (mul, series_mul(A, B))):
                got = op(a, b)
                assert isinstance(got, TruncSeries) and got.cap == 3, (op, a, b)
                assert got == want, (op, a, b)
    for c in (2, T):
        for got in (c * G, G * c):
            assert isinstance(got, TruncSeries) and got == G.scale(c)
    G5 = G_truncated((1,), 5)
    low = TruncSeries(3, G5.terms)
    for got, want in ((G + G5, G + low), (G5 + G, G + low), (G5 - G, low - G),
                      (G * G5, series_mul(G, low)), (G5 * G, series_mul(G, low))):
        assert got.cap == 3 and got == want


def test_a_polynomial_above_the_cap_is_refused():
    G, f = G_truncated((1,), 3), schur((2, 2))
    for op in (lambda: f + G, lambda: G + f, lambda: f - G, lambda: G - f,
               lambda: f * G, lambda: G * f):
        with pytest.raises(ValueError):
            op()


def test_scalars_multiply_from_either_side():
    f = schur((2, 1)) + schur((1,))
    assert T * f == f * T == f.scale(T)
    assert ONE * f == f
    for bad in (lambda: T * "x", lambda: T + "x", lambda: f * "x", lambda: 2 + f):
        with pytest.raises(TypeError):
            bad()


def test_kinds_that_do_not_meet_refuse_to_add():
    p, f, F = MultiPoly(2, {(1, 0): 1}), schur((1,)), H_series(2)
    for a, b in ((p, f), (f, p), (p, F), (F, p), (f, coproduct(f))):
        with pytest.raises(TypeError):
            a + b


def test_is_group_like():
    assert is_group_like(H_series(5))
    assert is_group_like(E_series(5))
    assert is_group_like(phi_t(H_series(5, 1)))
    # 1 + s_1 + s_2 agrees with the H(1) truncation at cap 2, so only a cap
    # that sees degree 3 exposes the failure
    probe2 = TruncSeries(2, {(): 1, (1,): 1, (2,): 1})
    assert is_group_like(probe2)
    probe3 = TruncSeries(3, {(): 1, (1,): 1, (2,): 1})
    assert not is_group_like(probe3)
    scaled = TruncSeries(2, {(): 1, (1,): 1, (2,): 2})
    assert not is_group_like(scaled)
    no_unit = TruncSeries(2, {(1,): 1})
    assert not is_group_like(no_unit)
    # one stray term breaks the square on the pairs it splits into
    assert not is_group_like(H_series(5) + TruncSeries(5, {(1, 1): 1}))
    assert not is_group_like(H_series(5) + TruncSeries(5, {(3,): 1}))


def test_group_like_condition_via_lr_oracle():
    F = H_series(4, 1)
    for mu in partitions_up_to(2):
        for nu in partitions_up_to(2):
            lhs = F.coeff(mu) * F.coeff(nu)
            rhs = ZERO
            for la in partitions_of(size(mu) + size(nu)):
                c = F.coeff(la)
                if not c.is_zero():
                    rhs = rhs + c * lr_scan(la, mu, nu)
            assert lhs == rhs


def test_series_scale_and_coeff():
    F = H_series(3).scale(T)
    assert F.coeff((2,)) == T ** 3
    assert F.coeff((1, 1)) == ZERO


# Per-term oracles for the builders that hand (coefficient, integer table)
# pairs to tpoly.sum_rows, which adds the tables as int slices per power of
# t: the same sums with one TPoly product per table entry.

def _lr_terms_per_term(f, g, cap=None):
    for mu, a in f.items():
        room = None if cap is None else cap - size(mu)
        for nu, b in g.items():
            if room is not None and size(nu) > room:
                continue
            for la, k in _mul_pair(*sorted((mu, nu))).items():
                yield la, a * b * k


def assert_same_terms(got, want):
    assert got == want
    for c in got.values():
        assert type(c) is TPoly and c.coeffs and c.coeffs[-1] != 0


def _sum_rows_per_term(pairs):
    return add_terms({}, ((key, c * k) for c, table in pairs for key, k in table.items()))


def test_sum_rows_matches_per_term_oracle():
    assert sum_rows([]) == {}
    got = sum_rows([(ONE + T, {"a": 1}), (-T, {"a": 1})])
    assert got["a"].coeffs == (1,)
    assert_same_terms(got, {"a": ONE})
    assert sum_rows([(T, {"a": 2}), (-T, {"a": 2})]) == {}
    # constants, t-polynomials with zero low-order coefficients, repeats
    pool = [ONE, -ONE, TPoly.const(3), T, -T, T ** 3, ONE + T,
            T ** 2 * 2 - ONE, -(T ** 3) + T ** 2]
    rng = random.Random(31)
    for _ in range(400):
        pairs = [(rng.choice(pool), {rng.randrange(6): rng.randint(-3, 3)
                                     for _ in range(rng.randint(0, 4))})
                 for _ in range(rng.randint(0, 6))]
        assert_same_terms(sum_rows(pairs), _sum_rows_per_term(pairs))


def test_sum_rows_leaves_cached_tables_unchanged():
    mu, nu, sigma = (2, 1), (2,), (3, 2, 1)
    reads = [lambda: _mul_pair(nu, mu), lambda: _skew(sigma, (1,)),
             lambda: _fillings(sigma, 2, True)]
    tables = [read() for read in reads]
    before = [dict(table) for table in tables]
    pairs = [(T, tables[0]), (-ONE, tables[0]), (ONE + T, tables[1]),
             (T ** 3, tables[1]), (TPoly.const(2), tables[2])]
    assert_same_terms(sum_rows(pairs), _sum_rows_per_term(pairs))
    # the builders that read the same cached tables
    f = (schur(mu) - schur(nu)).scale(T) + schur(sigma)
    f * f
    perp(H_series(6, T), f)
    schur_to_g(f)
    assert [dict(read()) for read in reads] == before
    # a plain, writable dict as the first table of a power: sum_rows copies
    # it, so the second table on the same keys never writes into it
    for c in (ONE, -ONE):
        first = {"a": 1, "b": 2}
        got = sum_rows([(c, first), (c, {"a": 3, "b": -2})])
        assert first == {"a": 1, "b": 2}
        assert got == {"a": c * 4}


def cancelling_pairs(max_size):
    """(t s_mu - t s_nu, s_(1) + t s_(1)) for every pair of shapes up to
    max_size: the rows t(1+t) and -t(1+t) meet, and cancel, on every shape
    that both s_mu s_(1) and s_nu s_(1) reach."""
    g = schur((1,)) + schur((1,)).scale(T)
    for mu in partitions_up_to(max_size):
        for nu in partitions_up_to(max_size):
            yield (schur(mu) - schur(nu)).scale(T), g


def test_grouped_product_matches_per_term_oracle():
    f = (schur((2,)) - schur((1, 1))).scale(T)
    g = schur((1,)) + schur((1,)).scale(T)
    got = (f * g).terms
    assert got == {(3,): T * (ONE + T), (1, 1, 1): -T * (ONE + T)}
    rng = random.Random(23)
    pairs = list(cancelling_pairs(5))
    pairs += [(random_symfunc(rng, 4, 4, True), random_symfunc(rng, 4, 4, True))
              for _ in range(40)]
    for f, g in pairs:
        assert_same_terms((f * g).terms, add_terms({}, _lr_terms_per_term(f.terms, g.terms)))
        want = add_terms({}, ((key, c * k) for sigma, c in f.terms.items()
                              for key, k in _coproduct_pairs(sigma).items()))
        assert_same_terms(coproduct(f).terms, want)
    for f, g in pairs[::25]:
        left, right = coproduct(f), coproduct(g)
        want = {}
        for (m1, n1), c1 in left.terms.items():
            for (m2, n2), c2 in right.terms.items():
                add_terms(want, (((lm, ln), c1 * c2 * (km * kn))
                                 for lm, km in _mul_pair(*sorted((m1, m2))).items()
                                 for ln, kn in _mul_pair(*sorted((n1, n2))).items()))
        assert_same_terms((left * right).terms, want)


def test_grouped_series_product_matches_per_term_oracle():
    rng = random.Random(29)
    cases = [(H_series(6, v), E_series(6, -v)) for v in (T, -1, 2)]
    cases += [(TruncSeries(6, random_symfunc(rng, 5, 4, True).terms),
               TruncSeries(rng.randint(3, 7), random_symfunc(rng, 5, 4, True).terms))
              for _ in range(30)]
    for F, G in cases:
        cap = min(F.cap, G.cap)
        got = series_mul(F, G)
        assert got.cap == cap
        assert_same_terms(got.terms, add_terms({}, _lr_terms_per_term(F.terms, G.terms, cap)))
    # H(v) E(-v) = 1: every term above degree 0 cancels across the rows
    for F, G in cases[:3]:
        assert series_mul(F, G).terms == {(): ONE}


def test_grouped_to_polynomial_matches_per_term_oracle():
    for f, _ in cancelling_pairs(4):
        for n in (1, 3):
            want = add_terms({}, ((exp, c * k) for la, c in f.terms.items()
                                  for exp, k in ssyt_poly(la, n).items()))
            got = to_polynomial(f, n)
            assert got.nvars == n
            assert_same_terms(got.terms, want)


def _ssyt_brute(la, n):
    """s_la(x_1..x_n) from every filling of la with entries 1..n that
    weakly increases along rows and strictly down columns."""
    cells = [(r, c) for r, w in enumerate(la) for c in range(w)]
    out = {}
    for values in product(range(n), repeat=len(cells)):
        t = dict(zip(cells, values))
        if all((not c or t[r, c - 1] <= v) and (not r or t[r - 1, c] < v)
               for (r, c), v in t.items()):
            exp = [0] * n
            for v in values:
                exp[v] += 1
            out[tuple(exp)] = out.get(tuple(exp), 0) + 1
    return out


def test_ssyt_poly_matches_tableau_enumeration():
    pairs = [(la, n) for la in partitions_up_to(6) for n in range(1, 5)]
    assert len(pairs) == 120
    for la, n in pairs:
        want = _ssyt_brute(la, n)
        assert dict(ssyt_poly(la, n)) == want, (la, n)
        assert (want == {}) == (len(la) > n)


def _kostka_count(la, mu):
    """K_{la mu} by backtracking: fill la row by row, each entry at least
    its left neighbour and above the entry over it, with value v used at
    most mu[v - 1] times."""
    cells = [(r, c) for r, w in enumerate(la) for c in range(w)]
    left, t = list(mu), {}

    def fill(i):
        if i == len(cells):
            return 1
        r, c = cells[i]
        lo = max(t[r, c - 1] if c else 1, t[r - 1, c] + 1 if r else 1)
        total = 0
        for v in range(lo, len(mu) + 1):
            if left[v - 1]:
                left[v - 1] -= 1
                t[r, c] = v
                total += fill(i + 1)
                left[v - 1] += 1
        return total

    return fill(0)


def test_kostka_rows_match_tableau_enumeration_up_to_8():
    shapes = partitions_up_to(8)
    assert len(shapes) == 67
    for la in shapes:
        want = {mu: k for mu in partitions_of(size(la)) if (k := _kostka_count(la, mu))}
        assert dict(_kostka(la)) == want, la
        assert _kostka(la)[la] == 1
