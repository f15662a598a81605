"""The ring of symmetric functions in the Schur basis over integer
polynomials in t.

SymFunc is a finite Schur expansion; TruncSeries holds every term of degree
at most an explicit cap and models elements of the completion (H(t), E(t),
stable Grothendieck series).  One Littlewood-Richardson kernel serves the
products, the coproduct and the perps: _skew expands s_{sigma/tau} by a
right-to-left column transfer under the lattice-word condition, and
_mul_pair reads s_mu s_nu from it as the skew Schur function of the
disconnected shape mu * nu.  lr_coeff reads one coefficient from the
skew table of its larger factor.  A direct lattice-word scan of one shape
wins only on queries that both answer in under about 1 ms, and it recurses
once per cell, so it lives in the tests as the oracle for the kernel.
The branching rule s_la(t, x) = sum of t^|la/mu| s_mu(x) over the
horizontal strips la/mu lives in one cached table per shape, _branching.
ssyt_poly reads it to evaluate s_la in n variables, peeling the strip of
entries n, for to_polynomial.  _kostka reads it to count the tableaux of
each content, peeling the strip of the largest entry, for the lift of a
symmetric polynomial back to the Schur basis, which reads one monomial
per orbit and builds no Schur polynomial.  The H(t) and E(t) perps read
it as f -> f(t, x).  The cached tables and polynomials are read-only
mappings.
"""

from functools import cache
from math import factorial
from types import MappingProxyType

from .partitions import (_box, as_partition, contains, size, subpartitions,
                         transpose)
from .tpoly import (ONE, T, ZERO, LinComb, MultiPoly, TPoly, _coerce,
                    add_terms, sum_rows)


def lr_coeff(la, mu, nu):
    """Littlewood-Richardson coefficient: multiplicity of s_la in s_mu s_nu.

    Zero unless |mu| + |nu| = |la| and both mu, nu sit inside la.
    Otherwise c^la_{mu nu} = [s_nu] s_{la/mu} = [s_mu] s_{la/nu}, read
    from the skew table of la over the larger factor (mu on a tie), so
    the transfer fills the smaller one, as in _mul_pair.
    """
    la, mu, nu = map(as_partition, (la, mu, nu))
    if size(mu) + size(nu) != size(la):
        return 0
    if not contains(mu, la) or not contains(nu, la):
        return 0
    inner, other = (nu, mu) if size(nu) > size(mu) else (mu, nu)
    return _skew(la, inner).get(other, 0)


def _corners(content, bits, mask):
    """The values v whose count can grow by one and leave the packed
    content a partition: 1, and each v with count(v - 1) > count(v)."""
    out, above, v = (1,), content & mask, 2
    content >>= bits
    while above:
        here = content & mask
        if above > here:
            out += (v,)
        above, content, v = here, content >> bits, v + 1
    return out


@cache
def _skew(sigma, tau):
    """Skew Schur expansion s_{sigma/tau} = sum_rho c^sigma_{tau rho} s_rho
    as a read-only mapping rho -> int in reverse-lex order; empty unless
    tau sits inside sigma.

    Littlewood-Richardson rule read by columns (Galashin, arXiv:1501.00051):
    c^sigma_{tau rho} counts the semistandard fillings of sigma/tau with
    content rho whose word, read down each column with the columns taken
    right to left, is a lattice word.  The transfer fills one column at a
    time, right to left.  A state is the finished column's entries on the
    rows the next column shares, with the content so far.  An entry
    exceeds the entry above and is at most the entry to its right and at
    most len(sigma).  The entries v_1 < ... < v_k of a column keep the word
    lattice exactly when content + e_{v_1} + ... + e_{v_k} is a partition,
    so each column adds a vertical strip to the content: the next entry
    down is the entry above plus one (1 at the top), or a later value
    where the content had an addable corner before the column began.
    Equal states merge and add their multiplicities.  The content is
    packed into one int, a field of |sigma/tau|.bit_length() bits per
    value (a count is at most the number of cells): a column's entries
    build its strip, and one addition adds the strip to the content.
    A part below 1 raises RuntimeError: its content unpacks to no partition.
    """
    if min(sigma + tau, default=1) < 1:
        raise RuntimeError("skew shape %r / %r has a part below 1" % (sigma, tau))
    if not contains(tau, sigma):
        return MappingProxyType({})
    n, bits = len(sigma), (size(sigma) - size(tau)).bit_length()
    mask = (1 << bits) - 1
    unit = [0] + [1 << bits * i for i in range(n)]
    cols, tops = transpose(sigma), transpose(tau)
    # column c - 1 holds rows tops[c]..cols[c - 1] - 1; the first column
    # filled (the rightmost) has no right neighbour and the last shares
    # no rows with a next one
    tops = (n,) + tops + (0,) * (len(cols) - len(tops))
    states = {((), 0): 1}
    for c in range(len(cols), 0, -1):
        lo, pad = tops[c], (n,) * (cols[c - 1] - tops[c])
        # (bounds by row, corners, content, multiplicity) of each state,
        # with the column's entries on the shared rows, its strip and its
        # last entry
        partial = [((right + pad, _corners(content, bits, mask), content, mult), (), 0, 0)
                   for (right, content), mult in states.items()]
        keep, states = tops[c - 1] - lo, {}
        for i in range(cols[c - 1] - lo):
            grow = i >= keep
            partial = [(st, col + (v,) if grow else col, strip + unit[v], v)
                       for st, col, strip, last in partial
                       for bound in (st[0][i],)
                       for v in (st[1] if last + 1 in st[1] else (last + 1,) + st[1])
                       if last < v <= bound]
        for (_, _, content, mult), col, strip, _ in partial:
            key = (col, content + strip)
            states[key] = states.get(key, 0) + mult
    out = {}
    for (_, content), mult in states.items():
        rho = []
        while content:
            rho.append(content & mask)
            content >>= bits
        out[tuple(rho)] = mult
    return MappingProxyType(dict(sorted(out.items(), reverse=True)))


@cache
def _mul_pair(mu, nu):
    """Schur expansion of s_mu s_nu as a read-only mapping la -> int, in the
    order of partitions_of.

    s_mu s_nu is the skew Schur function of the disconnected shape mu * nu,
    mu above and to the right of nu: sigma = (mu_i + nu_1)_i followed by
    nu, and tau = (nu_1)^len(mu).  So c^la_{mu nu} = c^sigma_{tau la}.
    The transfer fills nu; the factor with fewer cells is the cheaper one
    to fill (c^la_{mu nu} = c^la_{nu mu}), as it has fewer fillings.
    """
    if size(nu) > size(mu):
        mu, nu = nu, mu
    w = sum(nu[:1])
    return _skew(tuple(m + w for m in mu) + nu, nu[:1] * len(mu))


@cache
def _coproduct_pairs(sigma):
    """Coproduct of s_sigma as a read-only mapping (tau, rho) -> int: the
    skew expansion s_{sigma/tau} for every tau inside sigma.
    """
    return MappingProxyType({(tau, rho): k for tau in subpartitions(sigma)
                             for rho, k in _skew(sigma, tau).items()})


def _lr_rows(f, g, cap=None):
    """The Schur product of the term dicts f and g as sum_rows pairs: the
    LR table of every pair (mu, nu) under a * b, skipping the pairs of
    degree above cap when a cap is given.
    """
    pairs = []
    for mu, a in f.items():
        room = None if cap is None else cap - size(mu)
        pairs += [(a * b, _mul_pair(*sorted((mu, nu)))) for nu, b in g.items()
                  if room is None or size(nu) <= room]
    return pairs


class SymFunc(LinComb):
    """Finite Schur-basis expansion with TPoly coefficients.

    The constructor reads each key through as_partition, so trailing zeros
    are dropped and a key that is not a partition raises ValueError.
    """

    __slots__ = ()
    _key = staticmethod(as_partition)

    @staticmethod
    def zero():
        return SymFunc()

    @staticmethod
    def one():
        return SymFunc({(): ONE})

    def degree(self):
        return max((size(la) for la in self.terms), default=0)

    def __mul__(self, other):
        if isinstance(other, SymFunc):
            return self._like(sum_rows(_lr_rows(self.terms, other.terms)))
        if isinstance(other, (int, TPoly)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__


def schur(la):
    return SymFunc({la: ONE})


def h_gen(k):
    """Complete homogeneous h_k = s_(k)."""
    if k < 0:
        raise ValueError("h_k needs k >= 0")
    return SymFunc()._like({(k,) if k else (): ONE})


def e_gen(k):
    """Elementary e_k = s_(1^k)."""
    if k < 0:
        raise ValueError("e_k needs k >= 0")
    return SymFunc()._like({(1,) * k: ONE})


def p_gen(k):
    """Power sum p_k via the hook expansion sum_i (-1)^i s_(k-i,1^i)."""
    if k < 1:
        raise ValueError("p_k needs k >= 1")
    terms = {}
    for i in range(k):
        hook = (k - i,) + (1,) * i
        terms[hook] = TPoly.const((-1) ** i)
    return SymFunc(terms)


class TensorElem(LinComb):
    """Element of the tensor square, a finite sum of s_mu (x) s_nu."""

    __slots__ = ()

    @staticmethod
    def _key(key):
        return (as_partition(key[0]), as_partition(key[1]))

    def coeff(self, mu, nu):
        return LinComb.coeff(self, (mu, nu))

    def __mul__(self, other):
        """Componentwise product (a (x) b)(c (x) d) = ac (x) bd, bilinearly."""
        pairs = [(c1 * c2, {(lm, ln): km * kn
                            for lm, km in _mul_pair(*sorted((m1, m2))).items()
                            for ln, kn in _mul_pair(*sorted((n1, n2))).items()})
                 for (m1, n1), c1 in self.terms.items()
                 for (m2, n2), c2 in other.terms.items()]
        return self._like(sum_rows(pairs))

    def swap(self):
        return self._like({(nu, mu): c for (mu, nu), c in self.terms.items()})


def coproduct(f):
    """Coproduct of f, linearly extended from the Schur rule."""
    return TensorElem()._like(sum_rows([(c, _coproduct_pairs(sigma))
                                        for sigma, c in f.terms.items()]))


def antipode(f):
    """Antipode: s_la -> (-1)^|la| s_(la transposed), linearly extended."""
    return SymFunc()._like({transpose(la): -c if size(la) % 2 else c
                            for la, c in f.terms.items()})


def phi_t(f):
    """Variable scaling x -> tx: multiply each degree-d term by t^d."""
    return f._like({la: c * T ** size(la) for la, c in f.terms.items()})


class TruncSeries(LinComb):
    """Schur expansion holding every term of degree <= cap.

    A SymFunc operand of + or * is first truncated at the series' cap, so a
    polynomial of higher degree raises ValueError; arithmetic between two
    series truncates to the smaller cap and records it in the result, and a
    product of series is series_mul.  A scalar scales the series.  No
    coproduct is ever taken of a series.
    """

    __slots__ = ("cap",)
    _key = staticmethod(as_partition)

    def __init__(self, cap, terms=None):
        if cap < 0:
            raise ValueError("cap must be >= 0")
        self.cap = cap
        LinComb.__init__(self, terms)
        self.terms = {la: c for la, c in self.terms.items() if size(la) <= cap}

    def _like(self, terms):
        out = LinComb._like(self, terms)
        out.cap = self.cap
        return out

    @staticmethod
    def unit(cap):
        return TruncSeries(cap, {(): ONE})

    def _meet(self, other):
        """other as a series (a SymFunc truncated at this cap), else None."""
        if isinstance(other, SymFunc):
            return truncate(other, self.cap)
        return other if isinstance(other, TruncSeries) else None

    def __add__(self, other):
        other = self._meet(other)
        if other is None:
            return NotImplemented
        low = self if self.cap <= other.cap else other
        terms = add_terms(self.terms.copy(), other.terms.items())
        if self.cap != other.cap:
            terms = {la: c for la, c in terms.items() if size(la) <= low.cap}
        return low._like(terms)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, TPoly)):
            return self.scale(other)
        other = self._meet(other)
        return NotImplemented if other is None else series_mul(self, other)

    __rmul__ = __mul__

    def __eq__(self, other):
        return LinComb.__eq__(self, other) and self.cap == other.cap

    __hash__ = LinComb.__hash__

    def __repr__(self):
        return "cap=%d %s" % (self.cap, LinComb.__repr__(self))


def truncate(f, cap):
    """View a SymFunc as a TruncSeries with the given cap."""
    if f.degree() > cap:
        raise ValueError("degree %d exceeds cap %d" % (f.degree(), cap))
    return TruncSeries(cap, f.terms)


def series_mul(F, G):
    """Product of truncated series, truncated at the smaller cap."""
    low = F if F.cap <= G.cap else G
    return low._like(sum_rows(_lr_rows(F.terms, G.terms, low.cap)))


def H_series(N, t_param=T):
    """H(t) truncated at N: sum of t^i h_i with h_i = s_(i)."""
    t_param = _coerce(t_param)
    return TruncSeries(N)._like({(i,) if i else (): c for i in range(N + 1)
                                 if (c := t_param ** i)})


def E_series(N, t_param=T):
    """E(t) truncated at N: sum of t^i e_i with e_i one column."""
    t_param = _coerce(t_param)
    return TruncSeries(N)._like({(1,) * i: c for i in range(N + 1)
                                 if (c := t_param ** i)})


def is_group_like(F):
    """Check A_empty = 1 and coproduct(F) = F (x) F in every degree the cap
    sees: the coefficient of s_mu (x) s_nu in coproduct(F) is
    sum_la A_la c^la_{mu nu}, so this is A_mu A_nu = sum_la A_la c^la_{mu nu}
    for every pair with |mu| + |nu| <= cap.
    """
    if F.coeff(()) != ONE:
        return False
    terms = F.terms.items()
    return coproduct(F).terms == {(mu, nu): a * b for mu, a in terms for nu, b in terms
                                  if size(mu) + size(nu) <= F.cap}


def hall(F, f):
    """Hall inner product of F (series or SymFunc) against a SymFunc."""
    if isinstance(F, TruncSeries) and F.cap < f.degree():
        raise ValueError("series cap %d is below the argument degree %d"
                         % (F.cap, f.degree()))
    out = ZERO
    small, big = (F.terms, f.terms) if len(F.terms) <= len(f.terms) else (f.terms, F.terms)
    for la, c in small.items():
        d = big.get(la)
        if d is not None:
            out = out + c * d
    return out


# ---------------------------------------------------------------------------
# Symmetric polynomials in finitely many variables.
#
# The engine works on raw {exponent tuple: coefficient} dicts, with int
# coefficients from the transfer and TPoly coefficients from a MultiPoly.
# The lift schur_expand_raw is the engine's symmetry check; raw_is_symmetric
# is the independent one that the symmetry-gate suite and the tests run.

@cache
def _branching(la):
    """The branching table of la: a tuple whose entry k, for k = 0..la_1,
    is the read-only row {mu: 1} over the mu with la/mu a horizontal strip
    of k cells.

    Branching rule (Macdonald, Symmetric Functions and Hall Polynomials,
    I.5): s_la(t, x) = sum over those mu of t^|la/mu| s_mu(x), and they
    are the box from (la_2, la_3, ...) to la, which holds a shape of
    every size from |la| - la_1 to |la|; each row lists its shapes in
    reverse-lex order.
    """
    rows, total = [{} for _ in range(sum(la[:1]) + 1)], size(la)
    for mu in _box(la[1:], la):
        rows[total - sum(mu)][mu] = 1
    return tuple(MappingProxyType(row) for row in rows)


@cache
def _kostka(la):
    """The Kostka row of la: the read-only mapping {mu: K_{la mu}} over the
    partitions mu of |la|, K_{la mu} the number of semistandard tableaux
    of shape la and content mu.

    The entries equal to the largest value len(mu) form a horizontal strip
    la/nu of k = mu's last part cells, and the rest is a tableau of nu of
    content mu' = mu[:-1], whose last part is at least k.  So the row of
    la adds (k,) to each such mu' of the row of every nu in
    _branching(la)[k], k >= 1.
    """
    if not la:
        return MappingProxyType({(): 1})
    table, out = _branching(la), {}
    for k in range(1, len(table)):
        add_terms(out, ((mu + (k,), c) for nu in table[k]
                        for mu, c in _kostka(nu).items() if not mu or mu[-1] >= k))
    return MappingProxyType(out)


@cache
def ssyt_poly(la, n):
    """Schur polynomial s_la(x_1..x_n) as a raw int dict (read-only).

    The entries n of a semistandard tableau form a horizontal strip la/mu,
    so s_la(x_1..x_n) = sum over such mu of s_mu(x_1..x_{n-1}) x_n^|la/mu|,
    read from the branching table of la.
    """
    if not la:
        return MappingProxyType({(0,) * n: 1})
    if len(la) > n:
        return MappingProxyType({})
    out = {}
    for k, row in enumerate(_branching(la)):
        add_terms(out, ((e + (k,), c) for mu in row
                        for e, c in ssyt_poly(mu, n - 1).items()))
    return MappingProxyType(out)


def raw_is_symmetric(p, n):
    """Symmetry of a raw polynomial dict under adjacent transpositions."""
    for i in range(n - 1):
        for exp, c in p.items():
            if exp[i] == exp[i + 1]:
                continue
            swapped = list(exp)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            if p.get(tuple(swapped), 0) != c:
                return False
    return True


def schur_expand_raw(p, n):
    """Expand a symmetric raw polynomial dict over Schur polynomials.

    Returns {partition: coefficient} covering every partition with at most
    n rows, in lex-descending order.  Raises ValueError exactly when p is
    not symmetric.  It reads one monomial per orbit: p is symmetric
    exactly when every nonzero monomial's descending sort carries the same
    coefficient and the orbits of the sorted (dominant) monomials, of
    n!/prod(multiplicity of each value, zeros included)! monomials each,
    hold as many monomials as p has.  The first condition puts every
    monomial in the orbit of a dominant one with that one's coefficient,
    and the count then leaves no member of those orbits out.

    The peel works on the dominant coefficients, keyed by partition: the
    coefficient of x^mu in s_la(x_1..x_n) is the Kostka number K_{la mu}
    when mu has at most n rows.  It takes the lex-greatest la, records its
    coefficient c, and subtracts c times the Kostka row of la on the mu
    with at most n rows.  By Kostka unitriangularity (K_{la la} = 1, and
    K_{la mu} = 0 unless mu is dominated by la, hence lex-smaller) each
    peel lowers the leading partition, and the partitions of bounded size
    are finite, so the loop ends.  It checks that each peel lowers the
    leading partition, and raises RuntimeError, naming s_la, when one does
    not: the Kostka row of la is then wrong.
    """
    dominant, orbits, monomials, whole = {}, 0, 0, factorial(n)
    for e, c in p.items():
        if not c:
            continue
        monomials += 1
        s = tuple(sorted(e, reverse=True))
        if p.get(s, 0) != c:
            raise ValueError("input polynomial is not symmetric")
        if s == e:
            dominant[tuple(x for x in e if x)] = c
            orbit = whole
            for v in set(e):
                orbit //= factorial(e.count(v))
            orbits += orbit
    if orbits != monomials:
        raise ValueError("input polynomial is not symmetric")
    out = {}
    while dominant:
        la = max(dominant)
        if out and la >= top:
            raise RuntimeError("the lift of s_%s in %d variables did not lower "
                               "the leading partition" % (top, n))
        c = out[la] = dominant[la]
        top = la
        add_terms(dominant, ((mu, -c * k) for mu, k in _kostka(la).items()
                             if len(mu) <= n))
    return out


def to_polynomial(f, n):
    """Evaluate a SymFunc in the variables x_1..x_n."""
    if n < 1:
        raise ValueError("need at least one variable")
    return MultiPoly(n)._like(sum_rows([(c, ssyt_poly(la, n))
                                        for la, c in f.terms.items()]))

