"""Integer partitions, skew shapes and the containment order on Young's lattice.

Partitions are plain tuples of weakly decreasing positive integers, with no
trailing zeros; the empty partition is ``()``.  All comparisons pad with
zeros on the fly.  A skew shape is an ordered pair ``(outer, inner)`` with
``inner`` contained in ``outer``.
"""

from functools import cache
from operator import le


def as_partition(parts):
    """Normalize an iterable of integers to a canonical partition tuple.

    Raises ValueError unless the parts are weakly decreasing positive
    integers (trailing zeros are stripped).
    """
    p = tuple(int(x) for x in parts)
    while p and p[-1] == 0:
        p = p[:-1]
    for i, x in enumerate(p):
        if x <= 0:
            raise ValueError("partition parts must be positive: %r" % (parts,))
        if i + 1 < len(p) and x < p[i + 1]:
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


def cells(outer, inner=()):
    """Cells of the skew shape outer/inner as 0-based (row, col) pairs."""
    out = []
    for r, row_len in enumerate(outer):
        lo = inner[r] if r < len(inner) else 0
        for c in range(lo, row_len):
            out.append((r, c))
    return out


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
    keeps its row and column neighbours.
    """
    _check_skew(outer, inner)
    padded = inner + (0,) * (len(outer) - len(inner))
    out, inn = [], []
    shift = below = 0
    for r in range(len(outer) - 1, -1, -1):
        lo, hi = padded[r], outer[r]
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
    for i in range(len(outer) - 1):
        if (inner[i] if i < len(inner) else 0) < outer[i + 1]:
            return False
    return True


def is_vertical_strip(outer, inner):
    """No row of outer/inner holds two cells."""
    _check_skew(outer, inner)
    return all(outer[i] - (inner[i] if i < len(inner) else 0) <= 1
               for i in range(len(outer)))


def is_rook_strip(outer, inner):
    """At most one cell per row and per column (all cells removable corners)."""
    return is_horizontal_strip(outer, inner) and is_vertical_strip(outer, inner)


def strip_kind(outer, inner):
    """Flags among {'horizontal', 'vertical', 'rook'} for outer/inner."""
    flags = set()
    if is_horizontal_strip(outer, inner):
        flags.add("horizontal")
    if is_vertical_strip(outer, inner):
        flags.add("vertical")
    if "horizontal" in flags and "vertical" in flags:
        flags.add("rook")
    return flags


def interval(mu, la):
    """All nu with mu <= nu <= la, in canonical order.

    Raises ValueError if mu is not contained in la.
    """
    if not contains(mu, la):
        raise ValueError("interval undefined: %s not contained in %s"
                         % (format_partition(mu), format_partition(la)))
    out = [()]
    for i, part in enumerate(la):
        lo = mu[i] if i < len(mu) else 0
        out = [nu + (v,) for nu in out
               for v in range(lo, min(part, nu[-1] if nu else part) + 1)]
    return sorted((tuple(x for x in nu if x) for nu in out), key=sort_key)


@cache
def subpartitions(la):
    """All partitions contained in la, canonical order (cached)."""
    return tuple(interval((), la))


def mobius(mu, nu):
    """Moebius function of Young's lattice on the pair (mu, nu).

    Equals (-1)^|nu/mu| when nu/mu is a rook strip, 0 otherwise
    (including when mu is not contained in nu).
    """
    if not contains(mu, nu):
        return 0
    if not is_rook_strip(nu, mu):
        return 0
    return (-1) ** (size(nu) - size(mu))


def a_statistic(alpha, beta):
    """Count i >= 1 with beta_i > alpha_{i+1} and beta_i > beta_{i+1}.

    Out-of-range parts read as zero.
    """
    def part(p, i):
        return p[i - 1] if 1 <= i <= len(p) else 0

    return sum(1 for i in range(1, len(beta) + 1)
               if part(beta, i) > part(alpha, i + 1) and part(beta, i) > part(beta, i + 1))


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
    """Partitions of n that contain la, in reverse-lexicographic order.

    Built one row at a time, with no scan over the partitions of n: row i
    is at least la_i and 1, at most the row above (n for the first row),
    and leaves at least la_{i+1} + la_{i+2} + ... of n to cover la's
    lower rows, so every row chosen can be completed.  A depth-first walk
    over an explicit stack (no recursion per row) takes the larger row
    first, so the shapes come out in descending tuple order, which among
    partitions of one n is reverse-lex order, and need no sort.
    """
    if n < size(la):
        return []
    rest = [0] * (n + 1)  # rest[i] = la_{i+1} + la_{i+2} + ...
    for i in range(len(la) - 2, -1, -1):
        rest[i] = rest[i + 1] + la[i + 1]
    low = [max(x, 1) for x in la] + [1] * (n + 1 - len(la))
    out, stack = [], [((), n)]
    pop, push = stack.pop, stack.append
    while stack:
        p, left = pop()
        if not left:
            out.append(p)
            continue
        i = len(p)
        for v in range(low[i], min(p[-1] if p else n, left - rest[i]) + 1):
            push((p + (v,), left - v))
    return out


def horizontal_strip_additions(mu, k):
    """All la obtained from mu by adding a horizontal strip of exactly k cells,
    canonical order.

    Row i grows from mu[i] to at most mu[i-1] (row 0 by up to k), which
    makes la/mu a horizontal strip and la a partition.
    """
    out = [((), k)]
    for i, part in enumerate(mu + (0,)):
        above = mu[i - 1] if i else part + k
        out = [(la + (v,), left - v + part) for la, left in out
               for v in range(part, min(above, part + left) + 1)]
    # rows were chosen in ascending lexicographic order within one size
    return [tuple(x for x in la if x) for la, left in reversed(out) if not left]


def vertical_strip_additions(la, k):
    """All mu obtained from la by adding a vertical strip of exactly k cells."""
    return sorted([transpose(m) for m in horizontal_strip_additions(transpose(la), k)],
                  key=sort_key)


def vertical_strip_removals(nu):
    """All eta inside nu with nu/eta a vertical strip, canonical order."""
    nut = transpose(nu)
    return sorted([transpose(eta) for k in range(len(nu) + 1)
                   for eta in horizontal_strip_removals(nut, k)], key=sort_key)


def horizontal_strip_removals(la, k):
    """All mu inside la with la/mu a horizontal strip of exactly k cells,
    canonical order.

    Row i keeps between la[i+1] and la[i] cells, which makes la/mu a
    horizontal strip and mu a partition.
    """
    out = [((), k)]
    for i, part in enumerate(la):
        below = la[i + 1] if i + 1 < len(la) else 0
        out = [(mu + (v,), left - part + v) for mu, left in out
               for v in range(max(below, part - left), part + 1)]
    # rows were chosen in ascending lexicographic order within one size
    return [tuple(x for x in mu if x) for mu, left in reversed(out) if not left]


def format_partition(la):
    """Bracketed text form, e.g. ``[3,2,1]`` or ``[]``."""
    return "[" + ",".join(str(x) for x in la) + "]"


def format_skew(outer, inner):
    """Text form of a skew shape, e.g. ``[3,2,1]/[1]``."""
    return format_partition(outer) + "/" + format_partition(inner)


def parse_partition(text):
    """Parse the bracketed text form back to a tuple."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError("expected [a,b,...], got %r" % text)
    body = s[1:-1].strip()
    if not body:
        return ()
    # ints first, so an error names the parsed parts, as a [..] atom's does
    return as_partition([int(x) for x in body.split(",")])
