"""Littlewood-Richardson coefficients by a direct lattice-word scan, and
counts of standard fillings.

The tests' oracle for the column transfer schur._skew and everything read
from it: a backtracking search that shares no code with the transfer.  The
standard-filling counts check expansions too large for the scan, through
sum_rho c_rho f^rho = f^{sigma/tau}.
"""

from functools import cache
from math import factorial

from dualgroth.partitions import contains, size


@cache
def lr_scan(la, mu, nu):
    """Littlewood-Richardson coefficient: multiplicity of s_la in s_mu s_nu.

    Counts semistandard fillings of la/mu with content nu whose reverse
    reading word (rows top to bottom, each read right to left) is a lattice
    word.  Zero unless |mu| + |nu| = |la| and both mu, nu sit inside la.
    """
    if size(mu) + size(nu) != size(la):
        return 0
    if not contains(mu, la) or not contains(nu, la):
        return 0
    order = []
    for r in range(len(la)):
        lo = mu[r] if r < len(mu) else 0
        for c in range(la[r] - 1, lo - 1, -1):
            order.append((r, c))
    if not order:
        return 1
    nmax = len(nu)
    count = [0] * (nmax + 2)
    grid = [[0] * w for w in la]
    hits = 0

    def fill(idx):
        nonlocal hits
        if idx == len(order):
            hits += 1
            return
        r, c = order[idx]
        lo = 1
        if r >= 1 and c >= (mu[r - 1] if r - 1 < len(mu) else 0):
            lo = grid[r - 1][c] + 1
        hi = grid[r][c + 1] if c + 1 < la[r] else nmax
        for v in range(lo, hi + 1):
            if count[v] >= nu[v - 1]:
                continue
            if v > 1 and count[v] >= count[v - 1]:
                continue
            grid[r][c] = v
            count[v] += 1
            fill(idx + 1)
            count[v] -= 1

    fill(0)
    return hits


@cache
def skew_syt_count(sigma, tau=()):
    """f^{sigma/tau}: standard fillings, by removing the corner holding the
    largest entry."""
    if sigma == tau:
        return 1
    total = 0
    for r, part in enumerate(sigma):
        below = sigma[r + 1] if r + 1 < len(sigma) else 0
        if part > below and part > (tau[r] if r < len(tau) else 0):
            rest = sigma[:r] + (part - 1,) + sigma[r + 1:]
            total += skew_syt_count(tuple(x for x in rest if x), tau)
    return total


def hook_syt_count(la):
    """f^la by the hook length formula."""
    hooks = 1
    for r, part in enumerate(la):
        for c in range(part):
            hooks *= part - c + sum(1 for x in la[r + 1:] if x > c)
    return factorial(size(la)) // hooks
