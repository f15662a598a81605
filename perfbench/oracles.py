"""Independent combinatorics for the output checks.

Nothing here imports the package under test: every invariant a check
asserts is recomputed from first principles, so a wrong kernel cannot
vouch for itself.  Partitions are tuples of positive integers, weakly
decreasing, exactly as the package prints them.
"""

import re
from math import factorial


def partitions_of(n, maxpart=None):
    """Every partition of n with parts at most maxpart, largest first."""
    if maxpart is None:
        maxpart = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, maxpart), 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return out


def subpartitions(la):
    """Every partition contained in la, the empty one included."""
    if not la:
        return [()]
    out = []
    for rest in subpartitions(la[1:]):
        lo = rest[0] if rest else 0
        for first in range(lo, la[0] + 1):
            out.append(tuple(x for x in (first,) + rest if x))
    return sorted(set(out))


def transpose(la):
    return tuple(sum(1 for x in la if x > j) for j in range(la[0])) if la else ()


def contains(mu, la):
    return len(mu) <= len(la) and all(m <= l for m, l in zip(mu, la))


def hook_dim(la):
    """f^la, the number of standard Young tableaux, by the hook-length formula."""
    lat = transpose(la)
    hooks = 1
    for r, row in enumerate(la):
        for c in range(row):
            hooks *= (row - c) + (lat[c] - r) - 1
    return factorial(sum(la)) // hooks


def skew_syt_count(outer, inner):
    """Standard Young tableaux of outer/inner, by removing outer corners."""
    memo = {}

    def count(la):
        if la == inner:
            return 1
        if la in memo:
            return memo[la]
        total = 0
        for r in range(len(la)):
            below = la[r + 1] if r + 1 < len(la) else 0
            inner_r = inner[r] if r < len(inner) else 0
            if la[r] > below and la[r] > inner_r:
                smaller = la[:r] + (la[r] - 1,) + la[r + 1:]
                total += count(tuple(x for x in smaller if x))
        memo[la] = total
        return total

    return count(tuple(outer))


def is_horizontal_strip(outer, inner):
    """outer/inner has at most one cell in each column."""
    if not contains(inner, outer):
        return False
    return all((outer[i + 1] if i + 1 < len(outer) else 0)
               <= (inner[i] if i < len(inner) else 0)
               for i in range(len(outer)))


def is_vertical_strip(outer, inner):
    """outer/inner has at most one cell in each row."""
    if not contains(inner, outer):
        return False
    return all(outer[i] - (inner[i] if i < len(inner) else 0) <= 1
               for i in range(len(outer)))


def horizontal_strip_removals(la):
    """Every mu with la/mu a horizontal strip: la_{i+1} <= mu_i <= la_i."""
    out = [()]
    for i in range(len(la) - 1, -1, -1):
        lo = la[i + 1] if i + 1 < len(la) else 0
        out = [(v,) + rest for rest in out for v in range(lo, la[i] + 1)]
    return [tuple(x for x in mu if x) for mu in out]


def vertical_strip_removals(la):
    """Every mu with la/mu a vertical strip."""
    return [transpose(mu) for mu in horizontal_strip_removals(transpose(la))]


def horizontal_strip_additions(mu, k):
    """Every la containing mu with la/mu a horizontal strip of k cells."""
    rows = list(mu) + [0]
    out = []

    def build(i, left, acc):
        if i == len(rows):
            if left == 0:
                out.append(tuple(x for x in acc if x))
            return
        cap = left if i == 0 else min(left, rows[i - 1] - rows[i])
        for add in range(cap + 1):
            build(i + 1, left - add, acc + [rows[i] + add])

    build(0, k, [])
    return out


def columns(outer, inner):
    """Number of columns in which outer/inner has a cell."""
    it = transpose(inner)
    return sum(1 for j, h in enumerate(transpose(outer)) if h > (it[j] if j < len(it) else 0))


def g_two_variable(outer, inner):
    """g_{outer/inner}(x1, x2) as {(a, b): coefficient of x1^a x2^b}.

    A reverse plane partition with entries 1 and 2 is a partition kappa
    between inner and outer: 1 on kappa/inner, 2 on outer/kappa.  Each
    entry weighs one power of its variable per column that holds it.
    """
    out = {}
    for kappa in subpartitions(outer):
        if contains(inner, kappa):
            key = (columns(kappa, inner), columns(outer, kappa))
            out[key] = out.get(key, 0) + 1
    return out


def schur_two_variable(expansion):
    """sum c_nu s_nu(x1, x2) of a Schur expansion {nu: c}, as in g_two_variable.

    s_(a,b)(x1, x2) = sum over b <= i <= a of x1^i x2^(a+b-i); s_nu(x1, x2)
    is 0 when nu has more than two rows.
    """
    out = {}
    for nu, c in expansion.items():
        if len(nu) > 2:
            continue
        a, b = (tuple(nu) + (0, 0))[:2]
        for i in range(b, a + 1):
            out[(i, a + b - i)] = out.get((i, a + b - i), 0) + c
    return {k: v for k, v in out.items() if v}


def border_strip_additions(mu, k):
    """s_mu * p_k by the Murnaghan-Nakayama rule, as {la: sign}.

    On beta-numbers beta_i = mu_i + N - i, adding a border strip of k
    cells moves one bead from b to an empty b + k; the strip's height is
    the number of beads strictly between, and its sign (-1)^height.
    """
    n_parts = len(mu) + k
    beta = [(mu[i] if i < len(mu) else 0) + n_parts - 1 - i for i in range(n_parts)]
    beads = set(beta)
    out = {}
    for b in beta:
        if b + k in beads:
            continue
        height = sum(1 for x in beta if b < x < b + k)
        moved = sorted((beads - {b}) | {b + k}, reverse=True)
        la = tuple(x - (n_parts - 1 - i) for i, x in enumerate(moved))
        out[tuple(x for x in la if x)] = -1 if height % 2 else 1
    return out


_TERM = re.compile(r"([+-]?)(\d*)(\*?)(t(?:\^(\d+))?)?")


def parse_coeff(text):
    """Canonical coefficient text such as ``t^3-3*t^2+3*t-1`` as {power: int}."""
    out = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError("bad coefficient text %r" % text)
        sign, digits, star, tpart, power = m.groups()
        if star and not (digits and tpart):
            raise ValueError("bad coefficient text %r" % text)
        if not digits and not tpart:
            raise ValueError("bad coefficient text %r" % text)
        mag = int(digits) if digits else 1
        k = (int(power) if power else 1) if tpart else 0
        out[k] = out.get(k, 0) + (-mag if sign == "-" else mag)
        pos = m.end()
    return {k: v for k, v in out.items() if v}


def part_text(la):
    return "[" + ",".join(str(x) for x in la) + "]"
