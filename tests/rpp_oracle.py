"""Reverse plane partitions one filling at a time, and their column weight.

The tests' oracle for groth.rpp_generating_poly, which counts the
fillings of a skew shape column by column in a transfer: this module
lists every filling cell by cell and weighs each on its own.
"""

from dualgroth.partitions import contains


def cells(outer, inner=()):
    """Cells of the skew shape outer/inner as 0-based (row, col) pairs."""
    return [(r, c) for r, row_len in enumerate(outer)
            for c in range(inner[r] if r < len(inner) else 0, row_len)]


def enumerate_rpp(outer, inner, max_entry):
    """Yield every reverse plane partition of outer/inner with entries in
    1..max_entry, as a dict cell -> value, in column-major fill order.

    Entries weakly increase along rows and down columns.
    """
    if max_entry < 1:
        raise ValueError("max_entry must be >= 1")
    if not contains(inner, outer):
        raise ValueError("not a skew shape: %r/%r" % (outer, inner))
    order = sorted(cells(outer, inner), key=lambda rc: (rc[1], rc[0]))
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
