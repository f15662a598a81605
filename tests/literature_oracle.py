"""Rules from the literature that share no kernel with the engine's g and
G builders or its constants.

Straight g by a Jacobi-Trudi determinant (Lascoux-Naruse, Proc. Japan
Acad. Ser. A 90 (2014); see also Amanov-Yeliussizov, arXiv:2003.03907):

    g_la = det[h_{la_i - i + j}(x, 1^{i-1})],  1 <= i, j <= len(la),

where h_m(x, 1^a) = sum_k C(a+k-1, k) h_{m-k}(x) is h_m with a variables
set to 1.  Since I(f) = f(1, x), row i is the classical Jacobi-Trudi row
with I applied i - 1 times.  The determinant is built only from h atoms
and SymFunc products (the LR kernel); it reads none of groth's fillings,
transfer or lift.

c by Buch's K-theoretic Littlewood-Richardson rule (Buch, Acta Math. 189
(2002), arXiv:math/0004137, Thm 5.4): c(la, mu, nu) = [g_nu] g_{la/mu} is,
by duality, the coefficient of G_la in G_mu G_nu, and that is
(-1)^{|mu|+|nu|-|la|} times the number of set-valued tableaux of the
disconnected shape mu * nu with content la whose word is a reverse
lattice word.

d by set-valued counts over rook-strip removals: for mu, nu inside la,

    d(la, mu, nu) = (-1)^{|mu|+|nu|-|la|} sum_kappa T(la/kappa, nu),

over the kappa inside mu with mu/kappa a rook strip (at most one box in
each row and column), T(la/kappa, nu) counting the set-valued tableaux of
shape la/kappa with content nu whose word is a reverse lattice word.  This
form follows Buch's coproduct of G (loc. cit., section 6); it was found,
and is trusted here, by its agreement with d_coeff on every triple tested.

The two counts read only the tableau conditions below; neither reads
the engine's products, transfers or strip enumerations.
"""

from functools import cache
from itertools import combinations, product
from math import comb

from dualgroth.schur import SymFunc, h_gen


def shifted_h_weight(a, k):
    """C(a+k-1, k): the number of monomials of degree k in a variables,
    the weight of h_{m-k}(x) in h_m(x, 1^a)."""
    return comb(a + k - 1, k) if a else int(k == 0)


def shifted_h(m, a, weight=shifted_h_weight):
    """h_m(x, 1^a) = sum_k weight(a, k) h_{m-k}(x); zero for m < 0."""
    f = SymFunc.zero()
    for k in range(m + 1):
        if (w := weight(a, k)):
            f = f + h_gen(m - k).scale(w)
    return f


def jacobi_trudi_g(la, weight=shifted_h_weight):
    """det[h_{la_i - i + j}(x, 1^{i-1})] by Laplace expansion along the
    rows, memoised on the set of columns left; rows and columns 0-based,
    so row i carries i ones."""
    n = len(la)

    @cache
    def minor(cols):
        # rows n - len(cols) .. n-1 against the columns in cols
        if not cols:
            return SymFunc.one()
        i = n - len(cols)
        total = SymFunc.zero()
        for pos, j in enumerate(cols):
            entry = shifted_h(la[i] - i + j, i, weight)
            if entry.is_zero():
                continue
            term = entry * minor(cols[:pos] + cols[pos + 1:])
            total = total - term if pos % 2 else total + term
        return total

    return minor(tuple(range(n)))


def set_valued_count(outer, inner, content, box_word=sorted):
    """The number of set-valued tableaux of shape outer/inner and content
    `content` whose word is a reverse lattice word.

    A set-valued tableau puts a nonempty set of positive integers in each
    box, the greatest entry of a box at most the least entry of the box to
    its right and below the least entry of the box under it.  The word
    reads the rows bottom to top, each left to right, and lists each box's
    entries as box_word orders them (increasing).  It is a reverse lattice
    word when every suffix has at least as many letters i as i+1, that is
    when the content stays a partition as the word is read backwards: top
    row first, each right to left, each box's list reversed.  The boxes
    are filled in that order, one candidate set at a time.
    """
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    cells = [(r, c) for r, (o, i) in enumerate(zip(outer, inner))
             for c in range(o - 1, i - 1, -1)]
    index = {cell: k for k, cell in enumerate(cells)}
    right = [index.get((r, c + 1)) for r, c in cells]
    above = [index.get((r - 1, c)) for r, c in cells]
    least, greatest = [0] * len(cells), [0] * len(cells)
    n = len(content)

    def read(count, letters):
        count = list(count)
        for x in letters:
            count[x - 1] += 1
            if count[x - 1] > content[x - 1] or (x > 1 and count[x - 1] > count[x - 2]):
                return None
        return count

    def fill(k, count):
        if k == len(cells):
            return int(tuple(count) == tuple(content))
        lo = 1 if above[k] is None else greatest[above[k]] + 1
        hi = n if right[k] is None else least[right[k]]
        total = 0
        for m in range(1, hi - lo + 2):
            for box in combinations(range(lo, hi + 1), m):
                after = read(count, reversed(box_word(box)))
                if after is not None:
                    least[k], greatest[k] = box[0], box[-1]
                    total += fill(k + 1, after)
        return total

    return fill(0, [0] * n)


def _star(mu, nu):
    """The disconnected shape mu * nu as (outer, inner): mu above and to the
    right of nu."""
    w = nu[0] if nu else 0
    return tuple(m + w for m in mu) + tuple(nu), (w,) * len(mu)


def buch_c(la, mu, nu, box_word=sorted):
    """c(la, mu, nu) by Buch's rule: the signed set-valued count on mu * nu
    with content la."""
    outer, inner = _star(mu, nu)
    sign = (-1) ** ((sum(mu) + sum(nu) - sum(la)) % 2)
    return sign * set_valued_count(outer, inner, la, box_word)


def rook_strip_removals(mu):
    """The kappa inside mu with mu/kappa a rook strip: row i keeps
    max(mu_{i+1}, mu_i - 1) <= kappa_i <= mu_i boxes."""
    rows = [range(max(below, m - 1), m + 1) for m, below in zip(mu, tuple(mu[1:]) + (0,))]
    return [tuple(x for x in kappa if x) for kappa in product(*rows)]


def rook_strip_d(la, mu, nu, removals=rook_strip_removals):
    """d(la, mu, nu) for mu, nu inside la, as the signed sum of T(la/kappa,
    nu) over the kappa that removals(mu) lists."""
    sign = (-1) ** ((sum(mu) + sum(nu) - sum(la)) % 2)
    return sign * sum(set_valued_count(la, kappa, nu) for kappa in removals(mu))
