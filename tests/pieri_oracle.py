"""The skew Pieri rule term by term, one generator over the strips.

The tests' oracle for operators.skew_pieri, which reads two cached
per-shape strip tables: this module lists the horizontal strips added to
mu and the vertical strips removed from nu afresh on every call, takes
each a-statistic there, and adds the signed binomial terms with
add_terms, in the same (grow, la, eta) order.
"""

from dualgroth.partitions import (a_statistic, as_partition, contains,
                                  horizontal_strip_additions, size, transpose,
                                  vertical_strip_removals)
from dualgroth.tpoly import add_terms, binomial_general


def skew_pieri_terms(k, mu, nu):
    """{(la, eta): integer}, the formal expansion of h_k g_{mu/nu}."""
    mu, nu = as_partition(mu), as_partition(nu)
    if k < 0:
        raise ValueError("k must be >= 0")
    if not contains(nu, mu):
        raise ValueError("invalid skew shape %r/%r" % (mu, nu))
    nut = transpose(nu)
    lowers = [(eta, size(nu) - size(eta), a_statistic(nut, transpose(eta)))
              for eta in vertical_strip_removals(nu)]

    def pieri_terms():
        for grow in range(k + 1):
            for la in horizontal_strip_additions(mu, grow):
                a_top = a_statistic(la, mu)
                for eta, shrink, a_eta in lowers:
                    lower = k - grow - shrink
                    if lower < 0:
                        continue
                    m = a_top - a_eta - shrink
                    yield (la, eta), (-1) ** (k - grow) * binomial_general(m, lower)

    return add_terms({}, pieri_terms())
