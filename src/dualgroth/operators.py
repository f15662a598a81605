"""Perp operators, the automorphism I and its t-deformations, the
incidence algebra on Young's lattice, and the skew Pieri rule.

The perp of a truncated series F is the adjoint of multiplication by F
under the Hall pairing.  It reads only the support of F: each tau there
contributes F_tau s_{sigma/tau} through the skew kernel schur._skew.
Caps are explicit and exceeding one is a hard error, never a silent
truncation.  H(t)^perp is the substitution f(x) -> f(t, x) (Cauchy
identity), so it reads the branching table of each Schur term and builds
no series; E(t)^perp = omega H(t)^perp omega reads the table of the
transpose.  I = H(1)^perp and I^-1 = E(-1)^perp.  c-tilde reads one skew
g under I by the interval identity I(g_{la/mu}) = sum over kappa in
[mu, la] of g_{la/kappa}, which the i-skew suite checks.  Every
incidence function is built by _incidence from its row {mu: value} at
each shape la: the Moebius function reads the box of rook strips and j_t
the vertical strips removed from la.  The skew Pieri rule reads two
cached per-shape strip tables, the horizontal strips added to mu and the
vertical strips removed from nu, each with its a-statistic.
"""

from functools import cache
from operator import index
from types import MappingProxyType

from .groth import G_truncated, _g_coordinate, g_skew, g_to_schur
from .partitions import (_box, a_statistic, as_partition, column_count,
                         contains, horizontal_strip_additions, size,
                         subpartitions, transpose, vertical_strip_removals)
from .schur import SymFunc, _branching, _skew
from .tpoly import ONE, T, ZERO, TPoly, _coerce, binomial_general, sum_rows


def perp(F, f):
    """The perp of the series F: the adjoint of multiplication by F under
    the Hall pairing, sum over tau in F of F_tau s_{sigma/tau} for each
    term s_sigma of f.
    """
    if F.cap < f.degree():
        raise ValueError("series cap %d is below the argument degree %d"
                         % (F.cap, f.degree()))
    return f._like(sum_rows([(c * a, _skew(sigma, tau))
                             for sigma, c in f.terms.items()
                             for tau, a in F.terms.items() if contains(tau, sigma)]))


@cache
def _folded(sigma, t):
    """s_sigma(t, x) at an integer t as a read-only row {rho: t^|sigma/rho|}:
    the branching table of sigma with each strip size k folded in at t^k."""
    return MappingProxyType({rho: c for k, row in enumerate(_branching(sigma))
                             if (c := t ** k) for rho in row})


def H_perp(t_param, f):
    """Perp of H(t) at a formal or integer t: the substitution
    f(x) -> f(t, x), by the branching rule s_sigma(t, x) = sum over the
    horizontal strips sigma/rho of t^|sigma/rho| s_rho(x).

    An integer t scales one folded row per Schur term; a formal t scales
    each strip size k of the branching table by c_sigma t^k.
    """
    t = _coerce(t_param)
    if t.degree() < 1:
        t = t.as_int()
        return f._like(sum_rows([(c, _folded(sigma, t)) for sigma, c in f.terms.items()]))
    return f._like(sum_rows([(c * t ** k, row) for sigma, c in f.terms.items()
                             for k, row in enumerate(_branching(sigma))]))


def _omega(f):
    """The involution s_la -> s_(la transposed)."""
    return f._like({transpose(la): c for la, c in f.terms.items()})


def E_perp(t_param, f):
    """Perp of E(t) at a formal or integer t: omega H(t)^perp omega, the
    substitution f(x) -> f(t, x) read through the transpose, which sums
    t^|sigma/rho| s_rho over the vertical strips sigma/rho."""
    return _omega(H_perp(t_param, _omega(f)))


def op_I(f):
    """The automorphism sending g_la to the sum of g_mu over mu inside la:
    the perp of H(1), that is the substitution f(x) -> f(1, x).
    """
    return H_perp(1, f)


def op_I_inv(f):
    """Inverse of op_I: the perp of the alternating elementary series
    E(-1), that is f(x) -> f(-1, x) read through the transpose."""
    return E_perp(-1, f)


def apply_operator(name, f, t_param=None, mu=None):
    """Dispatch an operator by its public name."""
    if name == "I":
        return op_I(f)
    if name == "Iinv":
        return op_I_inv(f)
    if name == "Hperp":
        return H_perp(t_param if t_param is not None else T, f)
    if name == "Eperp":
        return E_perp(t_param if t_param is not None else T, f)
    if name == "Gperp":
        if mu is None:
            raise ValueError("Gperp needs the partition mu")
        mu = as_partition(mu)
        # below its degree G_mu^perp is zero; G_mu needs a cap of at least |mu|
        return perp(G_truncated(mu, max(f.degree(), size(mu))), f)
    raise ValueError("unknown operator %r" % name)


# ---------------------------------------------------------------------------
# Incidence algebra of Young's lattice, restricted to [empty, ground].

class IncidenceFn:
    """Scalar function on comparable pairs inside the interval [(), ground]."""

    __slots__ = ("ground", "values")

    def __init__(self, ground, values=None):
        self.ground = as_partition(ground)
        clean = {}
        for (mu, nu), c in (values or {}).items():
            c = _coerce(c)
            if not c.is_zero():
                mu, nu = as_partition(mu), as_partition(nu)
                if not (contains(mu, nu) and contains(nu, self.ground)):
                    raise ValueError("pair (%r, %r) outside the ground interval"
                                     % (mu, nu))
                clean[(mu, nu)] = c
        self.values = clean

    @staticmethod
    def _clean(ground, values):
        """An IncidenceFn over values an engine builder made clean (nonzero
        TPolys on pairs of the ground's own subpartitions), unchecked."""
        out = object.__new__(IncidenceFn)
        out.ground, out.values = ground, values
        return out

    def value(self, mu, nu):
        try:  # the keys are canonical: any other shape misses and is normalised
            return self.values[(mu, nu)]
        except (KeyError, TypeError):
            return self.values.get((as_partition(mu), as_partition(nu)), ZERO)

    def substitute(self, v):
        """Specialize t to the integer v; pairs whose value becomes 0 drop."""
        return IncidenceFn._clean(self.ground,
                                  {key: TPoly.const(x) for key, c in self.values.items()
                                   if (x := c.evaluate(v))})

    def __eq__(self, other):
        return (isinstance(other, IncidenceFn) and self.ground == other.ground
                and self.values == other.values)

    def __repr__(self):
        return "IncidenceFn(ground=%r, %d entries)" % (self.ground, len(self.values))


def inc_convolve(f, g):
    """Interval convolution (fg)(mu, la) = sum over mu <= nu <= la of
    f(mu, nu) g(nu, la), over the supports: f(mu, nu) meets g(nu, *).

    g's row at nu splits into int rows {la: coefficient of t^d in
    g(nu, la)}, one per power d, and the row of fg at mu is the sum_rows
    of f(mu, nu) t^d times each of them, one mu at a time; no TPoly
    product is taken per (mu, nu, la).
    """
    if f.ground != g.ground:
        raise ValueError("ground mismatch")
    split = {}
    for (nu, la), b in g.values.items():
        rows = split.setdefault(nu, [])
        rows.extend({} for _ in range(len(b.coeffs) - len(rows)))
        for row, x in zip(rows, b.coeffs):
            if x:
                row[la] = x
    lower = {}
    for (mu, nu), a in f.values.items():
        lower.setdefault(mu, []).append((nu, a))
    out = {}
    for mu, pairs in lower.items():
        row = sum_rows([(_times_t(a, d), part) for nu, a in pairs
                        for d, part in enumerate(split.get(nu, ()))])
        out.update(((mu, la), c) for la, c in row.items())
    return IncidenceFn._clean(f.ground, out)


@cache
def _times_t(a, d):
    """a t^d; an incidence function takes few values, so each is built once."""
    return a * T ** d


def _incidence(ground, row):
    """The IncidenceFn on [(), ground] whose row at each la inside ground is
    row(la), a {mu: nonzero TPoly} map over shapes mu inside la."""
    ground = as_partition(ground)
    return IncidenceFn._clean(ground, {(mu, la): c for la in subpartitions(ground)
                                       for mu, c in row(la).items()})


def inc_delta(ground):
    return _incidence(ground, lambda la: {la: ONE})


def inc_zeta(ground):
    return _incidence(ground, lambda la: dict.fromkeys(subpartitions(la), ONE))


def inc_mobius(ground):
    """Moebius function: (-1)^|la/mu| on the rook strips la/mu, the box
    max(la_{i+1}, la_i - 1) <= mu_i <= la_i of each la inside ground."""
    return _incidence(ground, lambda la: {
        mu: -ONE if (size(la) - size(mu)) % 2 else ONE
        for mu in _box(tuple(map(max, la[1:] + (0,), [x - 1 for x in la])), la)})


def inc_it(ground):
    """i_t(mu, la) = t^(number of columns of la/mu)."""
    return _incidence(ground, lambda la: {mu: _times_t(ONE, column_count(la, mu))
                                          for mu in subpartitions(la)})


def inc_jt(ground):
    """j_t: supported on vertical strips la/mu, where it takes the value
    (-1)^|la/mu| t^c (t-1)^(|la/mu| - c) with c the column count."""
    return _incidence(ground, lambda la: {
        mu: _jt_value(size(la) - size(mu), column_count(la, mu))
        for mu in vertical_strip_removals(la)})


@cache
def _jt_value(ncells, c):
    """j_t on a vertical strip of ncells cells in c columns."""
    return (T ** c) * ((T - ONE) ** (ncells - c)) * ((-1) ** ncells)


def telescoping_X(q):
    """The alternating column sum whose vanishing drives the induction that
    inverts i_t; exactly zero for every q >= 1."""
    if q < 1:
        raise ValueError("q must be >= 1")
    total = ZERO
    for j in range(q + 1):
        tpow = (1 if j > 0 else 0) + (1 if j < q else 0)
        upow = j - (1 if j > 0 else 0)
        total = total + (T ** tpow) * ((T - ONE) ** upow) * ((-1) ** j)
    return total


# ---------------------------------------------------------------------------
# Skew Pieri rule and the interval-summed structure constants.

@cache
def _grown(mu, grow):
    """The horizontal strips la/mu of grow cells, each as (la, a(la, mu));
    a read-only table shared by every call that adds grow cells to mu."""
    return tuple((la, a_statistic(la, mu)) for la in horizontal_strip_additions(mu, grow))


@cache
def _shrunk(nu):
    """The vertical strips nu/eta, each as (eta, |nu/eta|, a(nu', eta')),
    in canonical order; a read-only table shared by every call at nu."""
    nut = transpose(nu)
    return tuple((eta, size(nu) - size(eta), a_statistic(nut, transpose(eta)))
                 for eta in vertical_strip_removals(nu))


def skew_pieri(k, mu, nu):
    """Formal expansion of h_k g_{mu/nu} over skew shapes.

    Returns {(la, eta): integer} summed over la containing mu with la/mu a
    horizontal strip and eta inside nu with nu/eta a vertical strip.  The
    binomial weight uses the falling-factorial extension and is zero for a
    negative lower index.  The strips and their a-statistics come from
    the cached tables _grown and _shrunk; each (la, eta) occurs once, in
    the order grow, la, eta, and a zero weight leaves its key out.
    """
    k = index(k)
    mu, nu = as_partition(mu), as_partition(nu)
    if k < 0:
        raise ValueError("k must be >= 0")
    if not contains(nu, mu):
        raise ValueError("invalid skew shape %r/%r" % (mu, nu))
    lowers = _shrunk(nu)
    out = {}
    for grow in range(k + 1):
        sign = -1 if (k - grow) % 2 else 1
        for la, a_top in _grown(mu, grow):
            for eta, shrink, a_eta in lowers:
                lower = k - grow - shrink
                if lower >= 0 and (c := binomial_general(a_top - a_eta - shrink, lower)):
                    out[la, eta] = sign * c
    return out


def expand_skew_sum(formal):
    """Evaluate a formal {(la, eta): coefficient} sum into a SymFunc.

    Each coefficient is an int or a TPoly, read through _coerce (so a
    float is refused).  The terms are grouped by coefficient: each
    distinct c scales one int row, the integer Schur coefficients of its
    g_skew terms added together, and sum_rows adds the scaled rows.
    """
    rows = {}
    for (la, eta), c in formal.items():
        row = rows.setdefault(_coerce(c), {})
        get = row.get
        for mu, k in g_skew(la, eta).terms.items():
            row[mu] = get(mu, 0) + k.as_int()
    return SymFunc()._like(sum_rows(rows.items()))


def tilde_c(la, mu, nu):
    """Sum of c-coefficients over kappa in [mu, la]: the coefficient of g_nu
    in I(g_{la/mu}), by the interval identity that the i-skew suite checks;
    0 when mu is not inside la, where g_{la/mu} is 0."""
    la, mu, nu = map(as_partition, (la, mu, nu))
    return _g_coordinate(op_I(g_skew(la, mu)), nu).as_int()


def tilde_d(la, mu, nu):
    """Sum of d(la, alpha, beta) over alpha in mu, beta in nu: [g_la] I(g_mu g_nu),
    as I sends g_mu to that sum of g_alpha.  As in d_coeff, mu and nu are cut to
    la first."""
    la, mu, nu = map(as_partition, (la, mu, nu))
    mu, nu = tuple(map(min, mu, la)), tuple(map(min, nu, la))
    if size(la) > size(mu) + size(nu):
        return 0
    return _g_coordinate(op_I(g_to_schur(mu) * g_to_schur(nu)), la).as_int()
