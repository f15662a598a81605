"""Reverse plane partitions, the dual stable Grothendieck basis g, its dual
series G, and the two families of structure constants.

g_{la/mu} is the generating function of reverse plane partitions of the
skew shape, where a filling contributes one power of x_i per *column*
containing the entry i.  That column-counting weight is what makes g
inhomogeneous.  Rows and columns that hold no cell change neither the
fillings nor their weights (the conditions tie only row and column
neighbours, and the weight counts per column), so g_skew first deletes
them (partitions.skew_normal_form) and builds each diagram once.  A
straight g_la is built directly in the Schur basis from elegant
fillings (Lam-Pylyavskyy, arXiv:0705.2189, Thm 9.8); a skew g is the
reverse-plane-partition sum, evaluated by a column transfer and lifted
to the Schur basis.  The inverse side, s -> g and the series G_la dual
to g, reads the rows and the columns of one table of strict elegant
fillings (Lenart, Ann. Comb. 4 (2000), Thm 2.2).
"""

from functools import cache
from itertools import product
from types import MappingProxyType

from .partitions import (cells, contains, interval, partitions_of_containing,
                         size, skew_normal_form, transpose)
from .schur import SymFunc, TensorElem, TruncSeries, hall, schur_expand_raw
from .tpoly import ZERO, _coerce, add_terms, sum_rows


def enumerate_rpp(outer, inner, max_entry):
    """Yield every reverse plane partition of outer/inner with entries in
    1..max_entry, as a dict cell -> value, in column-major fill order.

    Entries weakly increase along rows and down columns.
    """
    if max_entry < 1:
        raise ValueError("max_entry must be >= 1")
    if not contains(inner, outer):
        raise ValueError("not a skew shape: %r/%r" % (tuple(outer), tuple(inner)))
    shape = cells(outer, inner)
    order = sorted(shape, key=lambda rc: (rc[1], rc[0]))
    filling = {}

    def rec(idx):
        if idx == len(order):
            yield dict(filling)
            return
        r, c = order[idx]
        lo = 1
        if (r - 1, c) in filling:
            lo = max(lo, filling[(r - 1, c)])
        if (r, c - 1) in filling:
            lo = max(lo, filling[(r, c - 1)])
        for v in range(lo, max_entry + 1):
            filling[(r, c)] = v
            yield from rec(idx + 1)
        del filling[(r, c)]

    yield from rec(0)


def rpp_weight(filling):
    """Column-content weight: value -> number of columns containing it."""
    per_column = {}
    for (r, c), v in filling.items():
        per_column.setdefault(c, set()).add(v)
    weight = {}
    for vals in per_column.values():
        for v in vals:
            weight[v] = weight.get(v, 0) + 1
    return weight


def rpp_generating_poly(outer, inner, nvars):
    """Sum of x^T over reverse plane partitions with entries <= nvars, as a
    raw {exponent: int} dict.

    Cell-by-cell transfer in column-major order.  A state remembers only
    what later cells can still see: the value above the current cell, the
    unconsumed left-neighbour values, and the values on rows the next
    column shares; fillings that agree there are merged, which keeps
    shapes with astronomically many fillings cheap.  Agrees with summing
    rpp_weight over enumerate_rpp.
    """
    zero = (0,) * nvars
    if not contains(inner, outer):
        return {}
    lt, it = transpose(outer), transpose(inner)
    columns = []
    for c in range(len(lt)):
        top = it[c] if c < len(it) else 0
        if lt[c] > top:
            columns.append((top, lt[c]))
    # frontier: values of the finished column on rows shared with the next;
    # in_start is the first row those values belong to
    frontier = {(): {zero: 1}}
    in_start = 0
    for idx, (top, bot) in enumerate(columns):
        if idx + 1 < len(columns):
            ntop, nbot = columns[idx + 1]
            out_lo, out_hi = max(top, ntop), min(bot, nbot)
        else:
            out_lo, out_hi = bot, bot
        # state: (left-neighbour values not yet consumed, values kept for
        # the next column, value in the cell above) -> polynomial
        states = {}
        for in_rem, poly in frontier.items():
            key = (in_rem, (), 0)
            tgt = states.setdefault(key, {})
            for exp, c in poly.items():
                tgt[exp] = tgt.get(exp, 0) + c
        for r in range(top, bot):
            nxt = {}
            for (in_rem, kept, above), poly in states.items():
                lo = max(1, above)
                if in_rem and r >= in_start:
                    lo = max(lo, in_rem[0])
                    in_next = in_rem[1:]
                else:
                    in_next = in_rem
                for v in range(lo, nvars + 1):
                    kept2 = kept + (v,) if out_lo <= r < out_hi else kept
                    key = (in_next, kept2, v)
                    tgt = nxt.setdefault(key, {})
                    if v > above:
                        # first occurrence of v in this column: weight x_v
                        for exp, c in poly.items():
                            e = list(exp)
                            e[v - 1] += 1
                            e = tuple(e)
                            tgt[e] = tgt.get(e, 0) + c
                    else:
                        for exp, c in poly.items():
                            tgt[exp] = tgt.get(exp, 0) + c
            states = nxt
        frontier = {}
        for (in_rem, kept, above), poly in states.items():
            tgt = frontier.setdefault(kept, {})
            for exp, c in poly.items():
                tgt[exp] = tgt.get(exp, 0) + c
        in_start = out_lo
    total = {}
    for poly in frontier.values():
        for exp, c in poly.items():
            total[exp] = total.get(exp, 0) + c
    return total


@cache
def _elegant(nu, k):
    """{mu: number of elegant fillings of nu/mu with entries <= k}
    (read-only).

    An elegant filling is a semistandard tableau whose row-i entries
    (1-indexed) lie in 1..i-1.  Its entries equal to k form a horizontal
    strip in rows k+1, ...; peeling that strip keeps nu[:k] and leaves
    every later row i between nu[i+1] and nu[i].
    """
    if k == 0:
        return MappingProxyType({nu: 1})
    tail = nu[k:]
    acc = {}
    for rows in product(*(range(lo, hi + 1)
                           for hi, lo in zip(tail, tail[1:] + (0,)))):
        rho = nu[:k] + tuple(r for r in rows if r)
        add_terms(acc, _elegant(rho, k - 1).items())
    return MappingProxyType(acc)


@cache
def _strict(nu, k):
    """{la: (-1)^{|nu/la|} N} (read-only), N the number of strict elegant
    fillings of nu/la with entries <= k: elegant fillings that increase
    strictly along rows too.  Their entries equal to k are removable corners
    of nu in rows k+1, ...; peeling them leaves every later row i between
    max(nu[i+1], nu[i]-1) and nu[i], each peeled cell flipping the sign.
    """
    if k <= 0:
        return MappingProxyType({nu: 1})
    tail = nu[k:]
    acc = {}
    for rows in product(*(range(max(lo, hi - 1), hi + 1)
                           for hi, lo in zip(tail, tail[1:] + (0,)))):
        rho = nu[:k] + tuple(r for r in rows if r)
        sign = -1 if (size(tail) - sum(rows)) % 2 else 1
        add_terms(acc, ((la, sign * c) for la, c in _strict(rho, k - 1).items()))
    return MappingProxyType(acc)


@cache
def g_skew(outer, inner=()):
    """The dual stable Grothendieck polynomial of outer/inner as a SymFunc.

    Zero when inner is not contained in outer.  g depends only on the
    cells up to deleting rows and columns that hold none: the RPP
    conditions tie only cells adjacent in a row or a column, and the
    weight counts per column, so an empty row separates pieces that share
    no column, an empty column separates pieces that share no row, and
    deleting either keeps every filling and its weight.  A shape not in
    skew_normal_form therefore returns the cached g of its normal form,
    and each diagram is built once.  A straight shape la is
    sum_mu f^mu_la s_mu, where f^mu_la counts the elegant fillings of
    la/mu.  A skew shape takes the generating polynomial in enough
    variables to see every Schur component (the expansion of g_{la/mu} is
    supported on subpartitions of la, so min(|la/mu|, rows of la)
    variables suffice) and lifts it; the lift raises ValueError if that
    polynomial is not symmetric, so it is the one symmetry check.  The
    result is cached and shared, so its terms are a read-only mapping.
    """
    outer, inner = tuple(outer), tuple(inner)
    if not contains(inner, outer):
        return SymFunc.zero().frozen()
    normal = skew_normal_form(outer, inner)
    if normal != (outer, inner):
        return g_skew(*normal)
    if not outer:
        return SymFunc.one().frozen()
    if inner:
        n = min(size(outer) - size(inner), len(outer))
        raw = schur_expand_raw(rpp_generating_poly(outer, inner, n), n)
    else:
        raw = _elegant(outer, len(outer) - 1)
    return SymFunc()._like({la: _coerce(c) for la, c in raw.items()}).frozen()


def g_to_schur(la):
    """Schur expansion of the straight-shape g_la."""
    return g_skew(tuple(la), ())


def schur_to_g(f):
    """Expand a SymFunc over the g basis; returns {partition: TPoly}.

    s_sigma = sum_la (-1)^{|sigma/la|} N_{la,sigma} g_la (Lenart): one row
    of _strict per term, summed as integers per distinct coefficient of f.
    """
    rows = {}
    for sigma, c in f.terms.items():
        add_terms(rows.setdefault(c, {}), _strict(sigma, len(sigma) - 1).items())
    return sum_rows(rows)


@cache
def G_truncated(la, N):
    """The stable Grothendieck series G_la, truncated at degree N.

    G_la = sum_mu (-1)^{|mu/la|} N_{la,mu} s_mu (Lenart): the la column of
    _strict over every mu containing la.  Its terms are a read-only mapping.
    """
    la = tuple(la)
    if N < size(la):
        raise ValueError("cap %d is below |la| = %d" % (N, size(la)))
    column = ((mu, _strict(mu, len(mu) - 1).get(la))
              for m in range(size(la), N + 1)
              for mu in partitions_of_containing(m, la))
    return TruncSeries(N, {mu: c for mu, c in column if c}).frozen()


def c_coeff(la, mu, nu):
    """Coefficient of g_nu in the g-expansion of g_{la/mu} (an integer)."""
    f = g_skew(tuple(la), tuple(mu))
    if f.is_zero():
        return 0
    return schur_to_g(f).get(tuple(nu), ZERO).as_int()


@cache
def d_coeff(la, mu, nu):
    """Coefficient of g_la in the product g_mu g_nu (an integer).

    Computed as the Hall pairing of the product against G_la, which picks
    out exactly that coefficient by duality.  Zero unless mu and nu sit
    inside la: the coproduct of G_la is supported on such pairs (Buch,
    Acta Math. 189 (2002)).
    """
    la, mu, nu = tuple(la), tuple(mu), tuple(nu)
    cap = size(mu) + size(nu)
    if size(la) > cap or not contains(mu, la) or not contains(nu, la):
        return 0
    f = g_to_schur(mu) * g_to_schur(nu)
    return hall(G_truncated(la, cap), f).as_int()


def g_coproduct(outer, inner=()):
    """Coproduct of g_{outer/inner} in the g (x) g basis.

    The sum over intermediate shapes nu of g_{outer/nu} (x) g_{nu/inner},
    with each skew factor expanded into straight g's.
    """
    outer, inner = tuple(outer), tuple(inner)
    acc = {}
    for nu in interval(inner, outer):
        left = schur_to_g(g_skew(outer, nu))
        right = schur_to_g(g_skew(nu, inner))
        add_terms(acc, (((a, b), ca * cb) for a, ca in left.items()
                        for b, cb in right.items()))
    return TensorElem(acc)
