"""Integer partitions, skew shapes and the containment order on Young's lattice.

Partitions are plain tuples of weakly decreasing positive integers, with no
trailing zeros; the empty partition is ``()``.  All comparisons pad with
zeros on the fly.  A skew shape is an ordered pair ``(outer, inner)`` with
``inner`` contained in ``outer``.  The lattice primitives take canonical
tuples unchecked; ``as_partition`` is the shape rule for any other input,
and ``skew_normal_form`` checks every row in its one pass.

The sized enumerations read one walk, ``_between(lo, hi, n)``: the
partitions of n that lie between lo and hi row by row, built one row at a
time and already in reverse-lex order.  An interval [mu, la] is the walk
between mu and la at each size; the partitions of n that contain la lie
between la and n^n; the shapes that add a horizontal strip of k cells to
mu lie between mu and (mu_1 + k, mu_1, mu_2, ...).

The strips of a shape read ``_box(lo, hi)`` instead: when lo_i >= hi_{i+1}
on every row, every vector between lo and hi is a partition, so the shapes
between them are a product of row ranges, with no walk and no size bound.
The shapes that la loses a horizontal strip to are the box from
(la_2, la_3, ...) to la, and those it loses a vertical strip to are the
transposes of that box for the transpose of la.
"""

from functools import cache
from itertools import product
from operator import ge, index, le


def as_partition(parts):
    """Normalize an iterable of integers to a canonical partition tuple.

    Raises ValueError unless the parts are weakly decreasing positive
    integers (trailing zeros are stripped).  Each part is read with
    operator.index, so a float or a string part is refused, never
    truncated or parsed.
    """
    try:
        p = tuple(map(index, parts))
    except TypeError:
        raise ValueError("partition parts must be integers: %r" % (parts,))
    while p and p[-1] == 0:
        p = p[:-1]
    if p and not (p[-1] > 0 and all(map(ge, p, p[1:]))):
        # the first part that breaks a rule names it
        for i, x in enumerate(p):
            if x <= 0:
                raise ValueError("partition parts must be positive: %r" % (parts,))
            if x < p[i + 1]:
                raise ValueError("partition parts must be weakly decreasing: %r" % (parts,))
    return p


def size(la):
    return sum(la)


def contains(mu, la):
    """True iff mu_i <= la_i for all i, i.e. mu sits inside la."""
    if len(mu) > len(la):
        return not any(mu[len(la):]) and contains(mu[:len(la)], la)
    return all(map(le, mu, la))


@cache
def transpose(la):
    """Conjugate partition: column lengths of la."""
    if not la:
        return ()
    return tuple(sum(1 for x in la if x >= j) for j in range(1, la[0] + 1))


def sort_key(la):
    """Key for the canonical order: size ascending, reverse-lex within size."""
    return (sum(la), tuple(-x for x in la))


def column_count(outer, inner=()):
    """Number of columns containing at least one cell of outer/inner."""
    lt, it = transpose(outer), transpose(inner)
    return sum(1 for c in range(len(lt)) if lt[c] > (it[c] if c < len(it) else 0))


def skew_normal_form(outer, inner=()):
    """outer/inner with every row and every column that holds no cell
    deleted, as a pair of partitions; ``((), ())`` when outer == inner.

    One bottom-up pass: each nonempty row moves left by the empty columns
    at and below it, which are the bottom nonempty row's inner part plus
    max(0, inner_r - outer_s) for each pair of consecutive nonempty rows
    r above s.  The kept rows and columns keep their order, so each cell
    keeps its row and column neighbours.  A row of outer or inner below
    the row under it, or below 0, raises ValueError.
    """
    _check_skew(outer, inner)
    padded = inner + (0,) * (len(outer) - len(inner))
    out, inn = [], []
    shift = below = lo_below = hi_below = 0
    for r in range(len(outer) - 1, -1, -1):
        lo, hi = padded[r], outer[r]
        if lo < lo_below or hi < hi_below:
            raise ValueError("not a skew shape: %s" % format_skew(outer, inner))
        lo_below, hi_below = lo, hi
        if lo < hi:
            if lo > below:
                shift += lo - below
            out.append(hi - shift)
            inn.append(lo - shift)
            below = hi
    out.reverse()
    inn.reverse()
    return tuple(out), tuple(x for x in inn if x)


def skew_half_turn(outer, inner=()):
    """outer/inner turned by 180 degrees in its box of n = len(outer) rows
    and w = outer[0] columns, in skew_normal_form.

    Cell (r, c) goes to (n-1-r, w-1-c), so row r of the turned outer shape
    is w - inner[n-1-r] and row r of its inner shape is w - outer[n-1-r].
    The turn keeps the cell count, each cell's row and column neighbours
    and the number of columns, and turning twice gives the normal form.
    """
    if not outer:
        return (), ()
    n, w = len(outer), outer[0]
    padded = inner + (0,) * (n - len(inner))
    return skew_normal_form(tuple(w - x for x in reversed(padded)),
                            tuple(w - x for x in reversed(outer)))


def skew_pieces(outer, inner=()):
    """The connected pieces of a diagram in skew_normal_form, top to bottom,
    each in normal form.

    Every row and every column of a skew diagram is one run of cells, so
    rows r-1 and r lie in one piece exactly when they share a column,
    inner[r-1] < outer[r].  A piece is a run of rows whose columns run
    without a gap from its bottom row's inner part to its top row's end;
    moving it left by that inner part puts it in normal form.
    """
    padded = inner + (0,) * (len(outer) - len(inner))
    pieces, top = [], 0
    for r in range(1, len(outer) + 1):
        if r == len(outer) or padded[r - 1] >= outer[r]:
            shift = padded[r - 1]
            pieces.append((tuple(x - shift for x in outer[top:r]),
                           tuple(x - shift for x in padded[top:r] if x > shift)))
            top = r
    return pieces


def _check_skew(outer, inner):
    if not contains(inner, outer):
        raise ValueError("not a skew shape: %s does not contain %s"
                         % (format_partition(outer), format_partition(inner)))


def is_horizontal_strip(outer, inner):
    """No column of outer/inner holds two cells."""
    _check_skew(outer, inner)
    return contains(outer[1:], inner)


def is_vertical_strip(outer, inner):
    """No row of outer/inner holds two cells."""
    _check_skew(outer, inner)
    return all(outer[i] - (inner[i] if i < len(inner) else 0) <= 1
               for i in range(len(outer)))


def interval(mu, la):
    """All nu with mu <= nu <= la, in canonical order: the walk of each
    size from |mu| to |la| in turn.

    Raises ValueError if mu is not contained in la.
    """
    if not contains(mu, la):
        raise ValueError("interval undefined: %s not contained in %s"
                         % (format_partition(mu), format_partition(la)))
    return [nu for n in range(size(mu), size(la) + 1) for nu in _between(mu, la, n)]


@cache
def subpartitions(la):
    """All partitions contained in la, canonical order (cached)."""
    return tuple(interval((), la))


def a_statistic(alpha, beta):
    """Count i >= 1 with beta_i > alpha_{i+1} and beta_i > beta_{i+1}.

    Out-of-range parts read as zero.
    """
    return sum(b > a and b > below for b, a, below
               in zip(beta, alpha[1:] + (0,) * len(beta), beta[1:] + (0,)))


@cache
def partitions_of(n):
    """All partitions of n, in reverse-lexicographic order ((n) first):
    partitions_of_containing(n, ())."""
    return tuple(partitions_of_containing(n, ()))


def partitions_up_to(n):
    """All partitions of size <= n in canonical order."""
    out = []
    for m in range(n + 1):
        out.extend(partitions_of(m))
    return out


def partitions_of_containing(n, la):
    """Partitions of n that contain la, in reverse-lexicographic order."""
    return _between(la, (n,) * max(n, len(la)), n)


def horizontal_strip_additions(mu, k):
    """All la obtained from mu by adding a horizontal strip of exactly k cells,
    canonical order: la_1 <= mu_1 + k and la_{i+1} <= mu_i."""
    return _between(mu, (sum(mu[:1]) + k,) + mu, size(mu) + k)


def vertical_strip_removals(nu):
    """All eta inside nu with nu/eta a vertical strip, canonical order: the
    transposes of the box from nu'[1:] to nu', the shapes that the
    transpose nu' loses a horizontal strip to."""
    nut = transpose(nu)
    return sorted([transpose(eta) for eta in _box(nut[1:], nut)], key=sort_key)


def _box(lo, hi):
    """The partitions nu with lo_i <= nu_i <= hi_i on every row, in
    descending tuple order; valid when lo_i >= hi_{i+1} on every row.

    Then nu_i >= lo_i >= hi_{i+1} >= nu_{i+1}, so every row vector of the
    box is weakly decreasing and the box is a product of row ranges, each
    from hi_i down to lo_i; a vector is a partition once its trailing
    zeros go, and dropping them keeps the order.  lo may be shorter than
    hi and is padded with zeros.
    """
    lo = lo + (0,) * (len(hi) - len(lo))
    return [nu[:len(nu) - nu.count(0)]
            for nu in product(*[range(h, x - 1, -1) for h, x in zip(hi, lo)])]


def _between(lo, hi, n):
    """The partitions nu of n with lo_i <= nu_i <= hi_i on every row, in
    descending tuple order, which among partitions of one n is reverse-lex
    order; lo and hi are partitions with len(lo) <= len(hi).

    One row at a time, depth first over an explicit stack whose states
    carry the row above: row i takes the values from
    max(lo_i, 1, left - hi_{i+1} - hi_{i+2} - ...) up to
    min(hi_i, the row above, left - lo_{i+1} - lo_{i+2} - ...), so the
    rows below can still cover lo and hold what is left of n.  Larger
    rows are pushed last and popped first, so no sort is needed.  A row
    that can only be 1 forces every row below it to 1, so that tail is
    written at once when hi has the rows for it.
    """
    if not size(lo) <= n <= size(hi):
        return []
    rows = len(hi)
    lo = lo + (0,) * (rows - len(lo))
    over, under = [0] * rows, [0] * rows  # sums of hi, lo below row i
    for i in range(rows - 1, 0, -1):
        over[i - 1], under[i - 1] = over[i] + hi[i], under[i] + lo[i]
    bounds = [(max(x, 1), o, h, u) for x, o, h, u in zip(lo, over, hi, under)]
    out, stack = [], [((), n, n)]
    pop, push = stack.pop, stack.append
    while stack:
        p, left, top = pop()
        if not left:
            out.append(p)
            continue
        i = len(p)
        floor, o, h, u = bounds[i]
        # inline comparisons: min() and max() cost a third of the walk
        low = left - o if left - o > floor else floor
        if top > h:
            top = h
        if top > left - u:
            top = left - u
        if top == low == 1:
            if i + left <= rows:
                out.append(p + (1,) * left)
            continue
        for v in range(low, top + 1):
            push((p + (v,), left - v, v))
    return out


def format_partition(la):
    """Bracketed text form, e.g. ``[3,2,1]`` or ``[]``."""
    return "[" + ",".join(str(x) for x in la) + "]"


def format_skew(outer, inner):
    """Text form of a skew shape, e.g. ``[3,2,1]/[1]``."""
    return format_partition(outer) + "/" + format_partition(inner)

