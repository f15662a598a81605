"""The Moebius function of Young's lattice pair by pair, from its
rook-strip characterization.

The tests' oracle for operators.inc_mobius, which lists the rook strips
of each shape from a box, and for I^-1 = E(-1)^perp: this module tests
one pair at a time with the strip predicates and shares no code with
the box.
"""

from dualgroth.partitions import (contains, is_horizontal_strip,
                                  is_vertical_strip, size)


def is_rook_strip(outer, inner):
    """At most one cell per row and per column (all cells removable corners)."""
    return is_horizontal_strip(outer, inner) and is_vertical_strip(outer, inner)


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
