"""Named verification suites.

Every identity the kernel implements has a suite here that recomputes both
sides independently and compares exactly.  A suite is declared once, by
``@_suite(name, default_max_size, description, cases)`` on its
definition, which registers it in SUITES.  With a case family ``cases``,
a generator (max_size, rng) -> (case id, *args), the definition is the one
check that every case runs, a function of the args; without one it is a
generator of (case id, thunk) pairs.  Either way ``iter_cases`` yields
(case id, thunk) pairs, drawn lazily one case at a time, and a thunk
returns (ok, lhs, rhs) with canonical serializations of the two sides
when they disagree.  At the default bounds the 26 suites (3,731 cases)
run in 0.18-0.31 s in one fresh process on a 2-CPU shared host.
"""

import random
from collections import namedtuple
from functools import cache, partial
from types import MappingProxyType

from .groth import (G_truncated, _rpp_packed, c_coeff, g_skew, g_to_schur,
                    rpp_generating_poly, schur_to_g, unpack_exponents)
from .operators import (E_perp, H_perp, inc_convolve, inc_delta, inc_it,
                        inc_jt, inc_mobius, inc_zeta, op_I, op_I_inv, perp,
                        skew_pieri, expand_skew_sum, telescoping_X, tilde_c,
                        tilde_d)
from .partitions import (column_count, contains, format_partition, interval,
                         is_horizontal_strip, is_vertical_strip,
                         partitions_of_containing, partitions_up_to, size,
                         subpartitions)
from .schur import (E_series, H_series, SymFunc, TruncSeries, _coproduct_pairs,
                    coproduct, antipode, h_gen, hall, is_group_like, phi_t,
                    schur, series_mul, to_polynomial, raw_is_symmetric,
                    ssyt_poly)
from .serialize import (g_expansion_json, incidence_text, multipoly_text,
                        series_text, symfunc_text, tensor_text, to_text)
from .tpoly import ONE, T, ZERO, MultiPoly, TPoly, add_terms

SuiteSpec = namedtuple("SuiteSpec", ["func", "default_max_size", "description"])

DEFAULT_SEED = 20250808

SUITES = {}


def _suite(name, default_max_size, description, cases=None):
    """Register the decorated definition as the suite `name`.

    Without cases the definition is the suite, a generator
    (max_size, rng) -> (case id, thunk).  With cases, a case family
    (max_size, rng) -> (case id, *args), it is the check that every case
    runs, and a case's thunk is that check bound to the case's args.
    """
    def register(fn):
        func = fn if cases is None else lambda max_size, rng: (
            (cid, partial(fn, *args)) for cid, *args in cases(max_size, rng))
        SUITES[name] = SuiteSpec(func, default_max_size, description)
        return fn
    return register


def _eq(render, first, *sides):
    """A case result: a failure naming first and the first side that
    differs from it, each rendered, or a pass if every side equals first."""
    for side in sides:
        if first != side:
            return (False, render(first), render(side))
    return (True, None, None)


def _text(x):
    """The renderer of a TPoly side."""
    return x.text()


def _sum(zero, pairs):
    """The sum of c * f over the (c, f) pairs, c an int or a TPoly, added
    into one dict: a combination of the kind (and cap) of zero."""
    return zero._like(add_terms({}, ((key, x * c) for c, f in pairs
                                     for key, x in f.terms.items())))


def _strip_weight(la, nu):
    """t^c (t+1)^(|la/nu| - c), for the vertical strip la/nu of c columns."""
    c = column_count(la, nu)
    return T ** c * (T + ONE) ** (size(la) - size(nu) - c)


def _random_symfunc(rng, max_deg, with_t=False):
    pool = partitions_up_to(max_deg)
    terms = {}
    for _ in range(3):
        la = pool[rng.randrange(len(pool))]
        if with_t and rng.random() < 0.5:
            c = TPoly((rng.randint(-3, 3), rng.randint(-2, 2)))
        else:
            c = TPoly.const(rng.randint(-3, 3))
        terms[la] = terms.get(la, ZERO) + c
    return SymFunc(terms)


def _random_series(rng, cap):
    pool = partitions_up_to(cap)
    terms = {}
    for _ in range(4):
        la = pool[rng.randrange(len(pool))]
        terms[la] = terms.get(la, ZERO) + TPoly((rng.randint(-2, 2), rng.randint(-1, 1)))
    terms[()] = ONE
    return TruncSeries(cap, terms)


def _shapes(max_size, rng, nonempty=False):
    """(case id, la) for every la with |la| <= max_size; la = (), which
    partitions_up_to lists first, too unless nonempty."""
    for la in partitions_up_to(max_size)[nonempty:]:
        yield format_partition(la), la


def _skew_shapes(max_size, rng, nonempty=False):
    """(case id, la, mu) for every skew shape la/mu with |la| <= max_size;
    those with no cell too unless nonempty."""
    for la in partitions_up_to(max_size):
        outer = format_partition(la) + "/"
        for mu in subpartitions(la):
            if not (nonempty and mu == la):
                yield outer + format_partition(mu), la, mu


def _pairs(max_size, rng, ordered=True):
    """(case id, mu, nu) for mu, nu up to max_size, in canonical order;
    when ordered, nu not before mu."""
    ps = partitions_up_to(max_size)
    texts = [format_partition(la) for la in ps]
    for i, mu in enumerate(ps):
        for j in range(i if ordered else 0, len(ps)):
            yield "(%s,%s)" % (texts[i], texts[j]), mu, ps[j]


def _random_pairs(max_size, rng, count):
    """(case id, f, g) for count random pairs, drawn one pair per case."""
    for i in range(count):
        yield "pair-%02d" % i, _random_symfunc(rng, max_size), _random_symfunc(rng, max_size)


def _random_triples(max_size, rng):
    """(case id, F, G, f) for 25 random triples, drawn one triple per case."""
    cap = max_size + 2
    for i in range(25):
        yield ("triple-%02d" % i, _random_series(rng, cap), _random_series(rng, cap),
               _random_symfunc(rng, max_size, with_t=True))


def _product_in_g(mu, nu):
    """The g expansion of g_mu g_nu."""
    return schur_to_g(g_to_schur(mu) * g_to_schur(nu))


# --- rpp / g-basis suites ---------------------------------------------------

@_suite("symmetry-gate", 5, "raw generating polynomial of every skew g is symmetric",
        _skew_shapes)
def _symmetry_gate(la, mu):
    n = max(1, min(size(la) - size(mu), len(la)))
    raw = rpp_generating_poly(la, mu, n)
    if raw_is_symmetric(raw, n):
        return (True, None, None)
    return (False, multipoly_text(MultiPoly(n, raw)), "a symmetric polynomial")


@_suite("g-top-term", 7, "g_la has leading Schur term s_la, everything else lower degree",
        _shapes)
def _g_top_term(la):
    f = g_to_schur(la)
    if f.coeff(la) != ONE:
        return (False, symfunc_text(f), "leading coefficient 1 on s%s" % format_partition(la))
    bad = [tau for tau in f.terms if tau != la and size(tau) >= size(la)]
    return (not bad, symfunc_text(f), "no other component of degree >= %d" % size(la))


@cache
def _packed_schur(la, m, bits):
    """s_la(x_1..x_m) as {packed exponent: int} (read-only), the exponent
    of x_v in field v-1 of `bits` bits (the layout of groth._rpp_packed);
    None if an exponent does not fit its field.
    """
    limit = 1 << bits
    out = {}
    for exp, n in ssyt_poly(la, m).items():
        if max(exp) >= limit:
            return None
        out[sum(e << bits * i for i, e in enumerate(exp))] = n
    return MappingProxyType(out)


def _packed_values(f, m, bits, shift):
    """f(z_{shift+1}..z_{shift+m}) as {packed exponent: int}, read from the
    packed Schur rows and the integer values of f's Schur coefficients;
    None if an exponent does not fit its field.
    """
    out = {}
    get = out.get
    shift *= bits
    for la, c in f.terms.items():
        rows = _packed_schur(la, m, bits)
        if rows is None:
            return None
        k = c.as_int()
        for key, n in rows.items():
            key <<= shift
            out[key] = get(key, 0) + k * n
    return out


def _split_alphabet(reads, m, bits):
    """sum_{nu in [mu, la]} g_{nu/mu}(x_1..x_m) g_{la/nu}(y_1..y_m), the y's
    being variables m+1..2m, packed with `bits` bits per field and without
    zero terms; None if an exponent does not fit its field.  `reads`
    holds (nu, g_{nu/mu}, g_{la/nu}) for each nu."""
    total = {}
    get = total.get
    for _, fx, fy in reads:
        px = _packed_values(fx, m, bits, 0)
        py = _packed_values(fy, m, bits, m)
        if px is None or py is None:
            return None
        for a, c in px.items():
            for b, d in py.items():
                key = a + b
                total[key] = get(key, 0) + c * d
    return {x: c for x, c in total.items() if c}


def _outside_support(f, outer, cells):
    """A failure if a Schur term of f does not lie inside outer or has more
    than `cells` cells, else None."""
    if all(contains(tau, outer) and size(tau) <= cells for tau in f.terms):
        return None
    return (False, symfunc_text(f), "Schur terms inside %s of size at most %d"
            % (format_partition(outer), cells))


@_suite("g-coproduct", 5, "coproduct of skew g matches the split-alphabet evaluation",
        partial(_skew_shapes, nonempty=True))
def _g_coproduct(la, mu):
    """Delta g_{la/mu} = sum_nu g_{nu/mu} (x) g_{la/nu}, in a split alphabet:
    the RPP transfer of la/mu in x_1..x_n, y_1..y_n against
    sum_nu g_{nu/mu}(x) g_{la/nu}(y) from the Schur expansions, in
    n = min(|la/mu|, l(la)) variables per alphabet.

    Every true term s_a(x) s_b(y) of either side has a, b inside la and
    of size at most |la/mu|, so at most n rows, and such products stay
    linearly independent in n variables per alphabet.  A wrong engine
    term with more rows would vanish there, so once the two sides agree
    the case also checks the support: every Schur term of each
    g_{nu/mu} and g_{la/nu} it read lies inside nu (resp. la) and has at
    most |nu/mu| (resp. |la/nu|) cells.

    Both sides are {packed exponent: int} dicts in the layout of
    groth._rpp_packed, whose field width (the bit length of la_1, the
    number of columns) covers every exponent of the transfer.  The product
    side checks that each of its exponents fits that width, so a packing
    never aliases one variable into the next: an exponent that does not
    fit fails the case (a correct g_{nu/mu} has none, since its exponents
    are at most its columns), and the failure texts are decoded at a
    width wide enough for it.
    """
    n = min(size(la) - size(mu), len(la))
    nv = 2 * n
    bits, direct = _rpp_packed(la, mu, nv)
    reads = [(nu, g_skew(nu, mu), g_skew(la, nu)) for nu in interval(mu, la)]
    wide = bits
    while (split := _split_alphabet(reads, n, wide)) is None:
        wide += 1
    if wide != bits or split != direct:
        return (False,
                multipoly_text(MultiPoly(nv, unpack_exponents(wide, split, nv))),
                multipoly_text(MultiPoly(nv, unpack_exponents(bits, direct, nv))))
    for nu, fx, fy in reads:
        fault = (_outside_support(fx, nu, size(nu) - size(mu))
                 or _outside_support(fy, la, size(la) - size(nu)))
        if fault:
            return fault
    return (True, None, None)


@_suite("i-equals-one", 7, "substituting (1,0,0,...) into any skew g gives 1", _skew_shapes)
def _i_equals_one(la, mu):
    f = g_skew(la, mu)
    return _eq(_text, hall(H_series(f.degree(), 1), f), ONE)


@_suite("single-variable-weight", 7, "one-variable evaluation of skew g is t^(column count)",
        _skew_shapes)
def _single_variable_weight(la, mu):
    got = to_polynomial(g_skew(la, mu), 1)
    return _eq(multipoly_text, got, MultiPoly(1, {(column_count(la, mu),): ONE}))


@_suite("g-G-duality", 6, "Hall pairing of G_la against g_mu is delta",
        lambda max_size, rng: ((cid, max_size, la, mu)
                               for cid, la, mu in _pairs(max_size, rng, ordered=False)))
def _g_G_duality(N, la, mu):
    v = hall(G_truncated(la, N), g_to_schur(mu))
    return _eq(_text, v, ONE if la == mu else ZERO)


@_suite("sum-rules-c", 6, "coefficients of any skew g over the g basis sum to 1",
        _skew_shapes)
def _sum_rules_c(la, mu):
    return _eq(_text, sum(schur_to_g(g_skew(la, mu)).values(), ZERO), ONE)


@_suite("sum-rules-d", 4, "g-basis coefficients of g_mu g_nu sum to 1", _pairs)
def _sum_rules_d(mu, nu):
    return _eq(_text, sum(_product_in_g(mu, nu).values(), ZERO), ONE)


@_suite("t-sum-rules", 5, "t-refined column-count sum rules for both constant families")
def _t_sum_rules(max_size, rng):
    for cid, la, mu in _skew_shapes(max_size, rng):
        yield "c:" + cid, partial(_t_sum_rule_c, la, mu)
    for cid, mu, nu in _pairs(max_size, rng):
        yield "d:" + cid, partial(_t_sum_rule_d, mu, nu)


def _by_columns(expansion):
    """Sum of c t^(column count of la) over a g expansion {la: c}: the
    coefficients tallied by column count first, so one power and one
    product are taken per distinct count, not per term."""
    tally = add_terms({}, ((column_count(la), c) for la, c in expansion.items()))
    return sum((c * T ** d for d, c in tally.items()), ZERO)


def _t_sum_rule_c(la, mu):
    return _eq(_text, _by_columns(schur_to_g(g_skew(la, mu))), T ** column_count(la, mu))


def _t_sum_rule_d(mu, nu):
    return _eq(_text, _by_columns(_product_in_g(mu, nu)),
               T ** (column_count(mu) + column_count(nu)))


# --- operator suites --------------------------------------------------------

@_suite("i-multiplicative", 4, "the map I is a ring morphism on random pairs",
        partial(_random_pairs, count=100))
def _i_multiplicative(f, g):
    return _eq(symfunc_text, op_I(f * g), op_I(f) * op_I(g))


@_suite("i-inverse", 7, "I and its inverse compose to the identity on the g basis", _shapes)
def _i_inverse(la):
    f = g_to_schur(la)
    return _eq(symfunc_text, f, op_I_inv(op_I(f)), op_I(op_I_inv(f)))


@_suite("i-substitution", 5, "I acts as the substitution f(x) -> f(1,x)",
        partial(_shapes, nonempty=True))
def _i_substitution(la):
    """I(s_la)(x) = s_la(1, x), in n = l(la) variables on the left and
    n + 1 on the right.  The true I(s_la) sums s_k over the k inside la
    with la/k a horizontal strip, so its terms have at most n rows and
    stay linearly independent in n variables; once the two sides agree
    the case also checks that every term of the engine's I(s_la) lies
    inside la, since a term with more rows would vanish."""
    n = len(la)
    image = op_I(schur(la))
    lhs = to_polynomial(image, n)
    rhs = to_polynomial(schur(la), n + 1).substitute_first(1)
    if lhs != rhs:
        return (False, multipoly_text(lhs), multipoly_text(rhs))
    return _outside_support(image, la, size(la)) or (True, None, None)


def _interval_sums(la, mu):
    """The two sides of I(g_{la/mu}): the sums over nu in [mu, la] of
    g_{nu/mu} and of g_{la/nu}."""
    nus = interval(mu, la)
    return (_sum(SymFunc.zero(), ((1, g_skew(nu, mu)) for nu in nus)),
            _sum(SymFunc.zero(), ((1, g_skew(la, nu)) for nu in nus)))


@_suite("i-skew", 6, "I of a skew g equals both interval sums", _skew_shapes)
def _i_skew(la, mu):
    return _eq(symfunc_text, op_I(g_skew(la, mu)), *_interval_sums(la, mu))


@_suite("perp-composition", 4, "the perp of a product composes the perps", _random_triples)
def _perp_composition(F, G, f):
    return _eq(symfunc_text, perp(series_mul(F, G), f), perp(G, perp(F, f)))


@_suite("perp-adjoint", 4, "perp is adjoint to series multiplication under the Hall pairing",
        _random_triples)
def _perp_adjoint(F, G, f):
    return _eq(_text, hall(series_mul(F, G), f), hall(G, perp(F, f)))


@_suite("phi-t-intertwine", 5, "variable scaling intertwines the t-deformed and plain perps",
        _shapes)
def _phi_t_intertwine(la):
    return _eq(symfunc_text, phi_t(H_perp(T, schur(la))), op_I(phi_t(schur(la))))


@_suite("h-perp-basis", 6, "two-sided g-basis expansion of the H-series perp", _shapes)
def _h_perp_basis(la):
    subs = subpartitions(la)
    by_nu = _sum(SymFunc.zero(), ((T ** column_count(la, nu), g_to_schur(nu)) for nu in subs))
    by_skew = _sum(SymFunc.zero(), ((T ** column_count(nu), g_skew(la, nu)) for nu in subs))
    return _eq(symfunc_text, H_perp(T, g_to_schur(la)), by_nu, by_skew)


@_suite("e-perp-basis", 6, "vertical-strip g-basis expansion of the E-series perp", _shapes)
def _e_perp_basis(la):
    by_nu = _sum(SymFunc.zero(), ((_strip_weight(la, nu), g_to_schur(nu))
                                  for nu in subpartitions(la) if is_vertical_strip(la, nu)))
    closed = _sum(SymFunc.zero(), [(1, g_to_schur(la))] + [
        (T * (T + ONE) ** (k - 1), g_skew(la, (1,) * k)) for k in range(1, len(la) + 1)])
    return _eq(symfunc_text, E_perp(T, g_to_schur(la)), by_nu, closed)


@_suite("e-functional-morphism", 3, "the E-series pairing is an algebra morphism",
        partial(_random_pairs, count=25))
def _e_functional_morphism(f, g):
    F = E_series(f.degree() + g.degree())
    return _eq(_text, hall(F, f * g), hall(F, f) * hall(F, g))


# --- series suites ----------------------------------------------------------

@_suite("series-generators", 6,
        "generator identities: H(t)E(-t)=1 and the G-expansions of H and E")
def _series_generators(max_size, rng):
    N = max_size

    def unit_check():
        got = series_mul(H_series(N), E_series(N, -T))
        return _eq(series_text, got, TruncSeries.unit(N))

    yield "H(t)E(-t)=1@%d" % N, unit_check

    def h1_check():
        total = _sum(TruncSeries(N), ((1, G_truncated(la, N)) for la in partitions_up_to(N)))
        return _eq(series_text, total, H_series(N, 1))

    yield "H(1)=sum-G@%d" % N, h1_check

    def e1_check():
        got = TruncSeries.unit(N) - G_truncated((1,), N)
        return _eq(series_text, got, E_series(N, -1))

    yield "E(-1)=1-G[1]@%d" % N, e1_check

    def et_check():
        total = _sum(TruncSeries(N), [(1, TruncSeries.unit(N))] + [
            (T * (T + ONE) ** (n - 1), G_truncated((1,) * n, N)) for n in range(1, N + 1)])
        return _eq(series_text, total, E_series(N))

    yield "E(t)=1+sum@%d" % N, et_check


def _containing_up_to(la, N):
    """The shapes containing la with at most N cells, by size."""
    for m in range(size(la), N + 1):
        yield from partitions_of_containing(m, la)


@_suite("series-g-products", 3, "products of H(t), E(t) and their specializations against G_la")
def _series_g_products(max_size, rng):
    N = max_size + 3
    sum_G = _sum(TruncSeries(N), ((1, G_truncated(mu, N)) for mu in partitions_up_to(N)))
    for la in partitions_up_to(max_size):
        def ht_case(la=la):
            lhs = series_mul(H_series(N), G_truncated(la, N))
            rhs = _sum(TruncSeries(N), ((T ** column_count(mu, la), G_truncated(mu, N))
                                        for mu in _containing_up_to(la, N)))
            return _eq(series_text, lhs, rhs)

        yield "H(t)G%s" % format_partition(la), ht_case

        def et_case(la=la):
            lhs = series_mul(E_series(N), G_truncated(la, N))
            rhs = _sum(TruncSeries(N), ((_strip_weight(mu, la), G_truncated(mu, N))
                                        for mu in _containing_up_to(la, N)
                                        if is_vertical_strip(mu, la)))
            return _eq(series_text, lhs, rhs)

        yield "E(t)G%s" % format_partition(la), et_case

        def i_star_case(la=la):
            lhs = series_mul(sum_G, G_truncated(la, N))
            rhs = _sum(TruncSeries(N), ((1, G_truncated(mu, N))
                                        for mu in _containing_up_to(la, N)))
            return _eq(series_text, lhs, rhs)

        yield "sumG*G%s" % format_partition(la), i_star_case

        def d_star_case(la=la):
            lhs = series_mul(TruncSeries.unit(N) - G_truncated((1,), N),
                             G_truncated(la, N))
            # mu/la a rook strip: both a vertical and a horizontal strip
            rhs = _sum(TruncSeries(N), (((-1) ** (size(mu) - size(la)), G_truncated(mu, N))
                                        for mu in _containing_up_to(la, N)
                                        if is_vertical_strip(mu, la)
                                        and is_horizontal_strip(mu, la)))
            return _eq(series_text, lhs, rhs)

        yield "(1-G[1])G%s" % format_partition(la), d_star_case


@_suite("hopf-axioms", 5, "antipode identity, cocommutativity, group-likeness of H and E")
def _hopf_axioms(max_size, rng):
    for la in partitions_up_to(max_size):
        def antipode_case(la=la):
            total = _sum(SymFunc.zero(), ((k, antipode(schur(tau)) * schur(rho))
                                          for (tau, rho), k in _coproduct_pairs(la).items()))
            return _eq(symfunc_text, total, SymFunc.one() if not la else SymFunc.zero())

        yield "antipode:%s" % format_partition(la), antipode_case

        def cocomm_case(la=la):
            d = coproduct(schur(la))
            return _eq(tensor_text, d.swap(), d)

        yield "cocommutative:%s" % format_partition(la), cocomm_case

    cap = max_size + 1
    # (case tag, name in the failure text, the series at cap)
    for tag, name, series in (("H", "H", H_series), ("E", "E", E_series),
                              ("phi-t-H1", "phi_t(H(1))",
                               lambda cap: phi_t(H_series(cap, 1)))):
        def grouplike(name=name, series=series):
            return (is_group_like(series(cap)), "is_group_like(%s@%d)=False" % (name, cap),
                    "True")

        yield "group-like:%s@%d" % (tag, cap), grouplike


# --- incidence algebra ------------------------------------------------------

@_suite("incidence-inverse", 4, "i_t * j_t = delta on a staircase ground, Moebius specializations")
def _incidence_inverse(max_size, rng):
    ground = tuple(range(max_size, 0, -1))
    gtext = format_partition(ground)

    def itjt():
        got = inc_convolve(inc_it(ground), inc_jt(ground))
        return _eq(incidence_text, got, inc_delta(ground))

    yield "it*jt=delta@%s" % gtext, itjt

    def jt_at_one():
        got = inc_jt(ground).substitute(1)
        return _eq(incidence_text, got, inc_mobius(ground))

    yield "jt(1)=mobius@%s" % gtext, jt_at_one

    def it_at_one():
        got = inc_it(ground).substitute(1)
        return _eq(incidence_text, got, inc_zeta(ground))

    yield "it(1)=zeta@%s" % gtext, it_at_one

    def zeta_mobius():
        got = inc_convolve(inc_zeta(ground), inc_mobius(ground))
        return _eq(incidence_text, got, inc_delta(ground))

    yield "zeta*mobius=delta@%s" % gtext, zeta_mobius

    for q in range(1, 11):
        def tele(q=q):
            return _eq(_text, telescoping_X(q), ZERO)

        yield "telescoping-q=%d" % q, tele


# --- golden examples and counterexamples ------------------------------------

_EXAMPLE_SHAPE = ((3, 2, 1), (1,))
_EXAMPLE_EXPANSION = {
    (3, 2): ONE, (3, 1, 1): ONE, (2, 2, 1): ONE,
    (3, 1): -ONE, (2, 2): -ONE, (2, 1, 1): -ONE,
    (2, 1): ONE,
}


@_suite("example-321-1", 6, "golden expansion of g[3,2,1]/[1] and its interval-union image")
def _example_321_1(max_size, rng):
    def expansion_case():
        la, mu = _EXAMPLE_SHAPE
        return _eq(lambda d: to_text(g_expansion_json(d)),
                   schur_to_g(g_skew(la, mu)), _EXAMPLE_EXPANSION)

    yield "g[3,2,1]/[1]-expansion", expansion_case

    def i_skew_case():
        la, mu = _EXAMPLE_SHAPE
        union = set()
        for top in ((3, 2), (3, 1, 1), (2, 2, 1)):
            union.update(subpartitions(top))
        common = _sum(SymFunc.zero(), ((1, g_to_schur(kappa)) for kappa in union))
        return _eq(symfunc_text, op_I(g_skew(la, mu)), *_interval_sums(la, mu), common)

    yield "interval-union-sum", i_skew_case


@_suite("counterexamples", 13, "the two negative interval-summed structure constants")
def _counterexamples(max_size, rng):
    def ctilde_case():
        v = tilde_c((5, 3, 2, 2, 1), (3, 2, 1), (3, 2, 1))
        return (v == -1, str(v), "-1")

    yield "ctilde[5,3,2,2,1]", ctilde_case

    def ctilde_other_route():
        la, mu, nu = (5, 3, 2, 2, 1), (3, 2, 1), (3, 2, 1)
        v = sum(c_coeff(kappa, mu, nu) for kappa in interval(mu, la))
        return (v == -1, str(v), "-1")

    yield "ctilde-inner-interval-route", ctilde_other_route

    def dtilde_case():
        v = tilde_d((5, 3, 2, 1), (3, 2, 1), (3, 2, 1))
        return (v == -1, str(v), "-1")

    yield "dtilde[5,3,2,1]", dtilde_case


@_suite("skew-pieri", 5, "row Pieri products of skew g match the signed binomial formula",
        lambda max_size, rng: (("h%d*g%s" % (k, cid), k, mu, nu)
                               for cid, mu, nu in _skew_shapes(max_size, rng)
                               for k in range(4)))
def _skew_pieri(k, mu, nu):
    return _eq(symfunc_text, h_gen(k) * g_skew(mu, nu), expand_skew_sum(skew_pieri(k, mu, nu)))


def iter_cases(name, max_size=None, seed=None):
    """Yield (case_id, thunk) pairs for a registered suite."""
    spec = SUITES[name]
    bound = spec.default_max_size if max_size is None else max_size
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    return spec.func(bound, rng)


def run_suite(name, max_size=None, seed=None):
    """Run a suite; returns a list of (case_id, ok, lhs, rhs) in case order."""
    return [(cid, *thunk()) for cid, thunk in iter_cases(name, max_size, seed)]
