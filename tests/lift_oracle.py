"""The Schur lift by peeling whole Schur polynomials: the oracle for
schur.schur_expand_raw, which peels Kostka rows on one monomial per orbit.

Repeatedly strip c * s_la(x_1..x_n), read from ssyt_poly, for the
lex-greatest surviving monomial c * x^la.  A leading monomial that is not
weakly decreasing means the input is not symmetric (ValueError); a strip
that does not lower the leading monomial means ssyt_poly is wrong
(RuntimeError).  Every stripped monomial is touched, so the cost grows
with the size of each Schur polynomial, every permutation included.
"""

from dualgroth.schur import ssyt_poly
from dualgroth.tpoly import add_terms


def peel_lift(p, n):
    """{partition: coefficient} with p = sum of c * s_la(x_1..x_n)."""
    p = {e: c for e, c in p.items() if c}
    out = {}
    while p:
        exp = max(p)
        if out and exp >= top:
            raise RuntimeError("the lift of s_%s in %d variables did not lower "
                               "the leading monomial" % (la, n))
        if any(exp[i] < exp[i + 1] for i in range(len(exp) - 1)):
            raise ValueError("input polynomial is not symmetric")
        la = tuple(x for x in exp if x)
        c = p[exp]
        out[la] = c
        top = exp
        add_terms(p, ((e2, -c * c2) for e2, c2 in ssyt_poly(la, n).items()))
    return out
