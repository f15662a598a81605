"""Reverse plane partitions, the dual stable Grothendieck basis g, its dual
series G, and the two families of structure constants.

g_{la/mu} is the generating function of reverse plane partitions of the
skew shape, where a filling contributes one power of x_i per *column*
containing the entry i.  That column-counting weight is what makes g
inhomogeneous.  Rows and columns that hold no cell change neither the
fillings nor their weights (the conditions tie only row and column
neighbours, and the weight counts per column), so g_skew first deletes
them (partitions.skew_normal_form) and builds each diagram once.  Pieces
that share no row and no column are filled independently and their
column weights add, so the g of a diagram with three or more rows and
more than one piece (partitions.skew_pieces) is the product of its
pieces' g's.  Turning a diagram by 180 degrees in its box
(partitions.skew_half_turn) and relabelling each entry v as N+1-v maps
its reverse plane partitions with entries <= N onto the turned
diagram's and keeps the column weight up to that relabelling; g is
symmetric, so the turned diagram has the same g.  A diagram that turns
into a straight shape takes the elegant-filling rule, and of a diagram
and its turn only the smaller pair is built.
A straight g_la is built directly in the Schur basis from
elegant fillings (Lam-Pylyavskyy, arXiv:0705.2189, Thm 9.8); any other
skew g is the reverse-plane-partition sum, evaluated by a left-to-right
column transfer in the form of schur._skew and lifted to the Schur
basis.  The inverse side, s -> g and the series G_la dual to g, reads
the rows and the columns of one table of strict elegant fillings
(Lenart, Ann. Comb. 4 (2000), Thm 2.2).  Both kinds of filling are
counted by one cached recursion, _fillings, which peels the cells
labelled k for k from the top label down; the step rule (elegant or
strict) is its argument.  Every g coordinate [g_la] f is read by one
reader, _g_coordinate.
"""

from functools import cache
from types import MappingProxyType

from .partitions import (_between, _box, as_partition, contains, size,
                         skew_half_turn, skew_normal_form, skew_pieces,
                         transpose)
from .schur import SymFunc, TruncSeries, schur_expand_raw
from .tpoly import ZERO, _coerce, add_terms, sum_rows


def _rpp_packed(outer, inner, nvars):
    """The packed core of rpp_generating_poly: (bits, {packed exponent:
    count}), where the exponent of x_v (v = 1..nvars) is field v-1 of
    `bits` bits, that is (packed >> bits * (v-1)) & (2**bits - 1).

    An exponent is at most the number of columns, and bits is that
    number's bit length, so every field holds its exponent and the
    packing is injective.  A caller that packs other polynomials in the
    same layout must check that their exponents fit too.
    """
    if not contains(inner, outer):
        return 0, {}
    cols, tops = transpose(outer), transpose(inner)
    bits = len(cols).bit_length()
    unit = [0] + [1 << bits * i for i in range(nvars)]
    # column c holds rows lo..cols[c]-1; the state on its left holds rows
    # top..top+len(left)-1 (the first column has no left neighbours)
    states, top = {(): {0: 1}}, cols[0] if cols else 0
    for c in range(len(cols)):
        lo = tops[c] if c < len(tops) else 0
        keep = (cols[c + 1] if c + 1 < len(cols) else 0) - lo
        grown = {}
        for left, poly in states.items():
            floor = (1,) * (top - lo) + left
            # (kept entries, last entry, x^(distinct values)) -> fillings
            fills = {((), 0, 0): 1}
            for i in range(cols[c] - lo):
                nxt = {}
                for (kept, last, mono), k in fills.items():
                    for v in range(max(last, floor[i]), nvars + 1):
                        key = (kept + (v,) if i < keep else kept, v,
                               mono if v == last else mono + unit[v])
                        nxt[key] = nxt.get(key, 0) + k
                fills = nxt
            for (kept, _, mono), k in fills.items():
                tgt = grown.setdefault(kept, {})
                get = tgt.get
                for x, m in poly.items():
                    x += mono
                    tgt[x] = get(x, 0) + k * m
        states, top = grown, lo
    total = {}
    for poly in states.values():
        for x, m in poly.items():
            total[x] = total.get(x, 0) + m
    return bits, total


def unpack_exponents(bits, packed, nvars):
    """{exponent tuple: c} from {packed exponent: c}, fields of `bits` bits."""
    mask, shifts = (1 << bits) - 1, [bits * i for i in range(nvars)]
    return {tuple([x >> s & mask for s in shifts]): c for x, c in packed.items()}


def rpp_generating_poly(outer, inner, nvars):
    """Sum of x^T over reverse plane partitions with entries <= nvars, as a
    raw {exponent: int} dict.

    Column transfer, left to right, in the form of schur._skew.  A state is
    the finished column's entries on the rows the next column shares (from
    this column's top row down to the next column's bottom; none if that
    range is empty) and carries one polynomial.  Each filling of the next
    column weakly increases downwards, and an entry is at least the entry
    above, at least its left neighbour where one exists, and at most nvars.
    Fillings that agree on the kept entries and on their set of distinct
    values are counted together and shift the state's polynomial by one x_v
    per distinct value v.  Equal states merge; the result is the sum over
    the final states.  The transfer runs in _rpp_packed on exponents
    packed into one int, a field per variable as wide as the bit length of
    the number of columns (which bounds every exponent), so a shift is one
    addition; this function unpacks its result.
    """
    return unpack_exponents(*_rpp_packed(outer, inner, nvars), nvars)


@cache
def _fillings(nu, k, strict):
    """{la: N} (read-only), N the number of elegant fillings of nu/la with
    entries <= k; when strict, {la: (-1)^{|nu/la|} N} over the strict ones.

    An elegant filling is a semistandard tableau whose row-i entries
    (1-indexed) lie in 1..i-1; a strict one increases strictly along rows
    too.  Its entries equal to k form a horizontal strip in rows k+1, ...
    (removable corners of nu, when strict).  Peeling them keeps nu[:k] and
    leaves every later row i between nu[i+1] and nu[i], and when strict
    at least nu[i]-1, each peeled cell flipping the sign: a box of rows,
    partitions._box.  Every caller passes strict positionally, so each
    table has one cache key.
    """
    if k <= 0:
        return MappingProxyType({nu: 1})
    tail = nu[k:]
    floor = tail[1:] + (0,)
    if strict:
        floor = tuple(max(lo, hi - 1) for hi, lo in zip(tail, floor))
    acc = {}
    for rows in _box(floor, tail):
        rho = nu[:k] + rows
        table = _fillings(rho, k - 1, strict).items()
        if strict and (size(tail) - sum(rows)) % 2:
            table = ((la, -c) for la, c in table)
        add_terms(acc, table)
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
    and each diagram is built once.  A normal-form diagram with three or
    more rows and more than one piece returns the product of its pieces'
    cached g's: every row and every column is one run of cells, so pieces
    that share neither are filled independently and their column weights
    add.  (A two-row diagram stays on the transfer, whose one variable
    per row makes it as cheap as the product.)  The half-turn of a
    diagram in its box (skew_half_turn) has the same g: reading cell
    (r, c) at (n-1-r, w-1-c) with entry N+1-v keeps rows and columns
    weakly increasing and sends a filling of weight x^a to one of weight
    x^(a reversed), and g is symmetric.  So a diagram whose turn is
    straight returns the cached straight g, and of a diagram and its
    turn the larger (outer, inner) pair returns the g of the smaller,
    which alone is built.  A straight shape la is
    sum_mu f^mu_la s_mu, where f^mu_la counts the elegant fillings of
    la/mu.  Any other skew shape takes the generating polynomial in enough
    variables to see every Schur component (the expansion of g_{la/mu} is
    supported on subpartitions of la, so min(|la/mu|, rows of la)
    variables suffice) and lifts it; the lift raises ValueError if that
    polynomial is not symmetric, so it is the one symmetry check.  The
    result is cached and shared, so its terms are a read-only mapping.  A
    shape that is not a partition raises ValueError and is never cached.
    """
    if not contains(inner, outer):
        as_partition(outer), as_partition(inner)  # refuse a non-partition
        return SymFunc.zero().frozen()
    normal = skew_normal_form(outer, inner)
    if normal != (outer, inner):
        return g_skew(*normal)
    if not outer:
        return SymFunc.one().frozen()
    if inner:
        pieces = skew_pieces(outer, inner) if len(outer) > 2 else ()
        if len(pieces) > 1:
            f = g_skew(*pieces[0])
            for piece in pieces[1:]:
                f = f * g_skew(*piece)
            return f.frozen()
        turned = skew_half_turn(outer, inner)
        if not turned[1] or turned < (outer, inner):
            return g_skew(*turned)
        n = min(size(outer) - size(inner), len(outer))
        raw = schur_expand_raw(rpp_generating_poly(outer, inner, n), n)
    else:
        raw = _fillings(outer, len(outer) - 1, False)
    return SymFunc()._like({la: _coerce(c) for la, c in raw.items()}).frozen()


def g_to_schur(la):
    """Schur expansion of the straight-shape g_la: the cache entry of
    g_skew(la, ()), whose miss checks the shape."""
    return g_skew(tuple(la), ())


def schur_to_g(f):
    """Expand a SymFunc over the g basis; returns {partition: TPoly}.

    s_sigma = sum_la (-1)^{|sigma/la|} N_{la,sigma} g_la (Lenart): one row
    of the strict _fillings table per term, scaled by its coefficient in f.
    """
    return sum_rows([(c, _fillings(sigma, len(sigma) - 1, True))
                     for sigma, c in f.terms.items()])


def _G_support(la, n):
    """The bound, row by row, of the shapes mu of size at most n with
    [s_mu] G_la = [g_la] s_mu nonzero.

    A strict elegant filling of mu/la puts no entry in row 1 and at most
    i - 1 entries in row i (1-indexed), so mu_1 = la_1 and
    mu_i <= la_i + i - 1.  The running minimum of min(la_1, la_i + i - 1)
    down the rows makes the bound a partition; it has the
    l(la) + n - |la| rows that a shape of size n containing la can have.
    """
    if not la:
        return ()
    top, bound = la[0], []
    for i in range(max(len(la), len(la) + n - size(la))):
        top = min(top, (la[i] if i < len(la) else 0) + i)
        bound.append(top)
    return tuple(bound)


def _g_coordinate(f, la):
    """[g_la] f: only the terms of f on shapes between la and its G
    support bound reach g_la."""
    hi = _G_support(la, f.degree())
    return schur_to_g(f._like({sigma: c for sigma, c in f.terms.items()
                               if contains(la, sigma) and contains(sigma, hi)})).get(la, ZERO)


@cache
def G_truncated(la, N):
    """The stable Grothendieck series G_la, truncated at degree N.

    G_la = sum_mu (-1)^{|mu/la|} N_{la,mu} s_mu (Lenart): entry la of the
    strict _fillings table of every mu that can hold a strict elegant
    filling of mu/la, the shapes of each size between la and its support
    bound _G_support.  Its terms are a read-only mapping.
    """
    la = as_partition(la)
    if N < size(la):
        raise ValueError("cap %d is below |la| = %d" % (N, size(la)))
    hi = _G_support(la, N)
    column = ((mu, _fillings(mu, len(mu) - 1, True).get(la))
              for m in range(size(la), N + 1) for mu in _between(la, hi, m))
    return TruncSeries(N)._like({mu: _coerce(c) for mu, c in column if c}).frozen()


def c_coeff(la, mu, nu):
    """Coefficient of g_nu in the g-expansion of g_{la/mu} (an integer)."""
    la, mu, nu = map(as_partition, (la, mu, nu))
    return _g_coordinate(g_skew(la, mu), nu).as_int()


def d_coeff(la, mu, nu):
    """[g_la] g_mu g_nu (an integer): 0 unless mu, nu sit in la, as the coproduct
    of G_la, dual to g_la, lives on such pairs (Buch, Acta Math. 189 (2002))."""
    la, mu, nu = map(as_partition, (la, mu, nu))
    if size(la) > size(mu) + size(nu) or not contains(mu, la) or not contains(nu, la):
        return 0
    return _g_coordinate(g_to_schur(mu) * g_to_schur(nu), la).as_int()
