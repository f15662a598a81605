"""Rules from the literature that share no kernel with the engine's g and
G builders.

Straight g by a Jacobi-Trudi determinant (Lascoux-Naruse, Proc. Japan
Acad. Ser. A 90 (2014); see also Amanov-Yeliussizov, arXiv:2003.03907):

    g_la = det[h_{la_i - i + j}(x, 1^{i-1})],  1 <= i, j <= len(la),

where h_m(x, 1^a) = sum_k C(a+k-1, k) h_{m-k}(x) is h_m with a variables
set to 1.  Since I(f) = f(1, x), row i is the classical Jacobi-Trudi row
with I applied i - 1 times.  The determinant is built only from h atoms
and SymFunc products (the LR kernel); it reads none of groth's fillings,
transfer or lift.
"""

from functools import cache
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
