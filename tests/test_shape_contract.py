"""One shape contract for the entry points that take shapes: a padded
tuple, and a list where the name is not a cache key, gives the canonical
tuple's value; a non-partition raises ValueError and is never cached."""

import pytest

from dualgroth import operators
from dualgroth.groth import (G_truncated, c_coeff, d_coeff, g_skew,
                             g_to_schur)
from dualgroth.operators import (IncidenceFn, apply_operator, inc_delta,
                                 inc_it, inc_jt, inc_mobius, inc_zeta,
                                 skew_pieri, tilde_c, tilde_d)
from dualgroth.schur import lr_coeff


def _incidence_fn(s):
    def key(la):  # a dict key must be hashable, so a list keys as its tuple
        return tuple(s(la))

    f = IncidenceFn(s((2, 1)), {(key((1,)), key((2, 1))): 3, (key(()), key((1, 1))): -1})
    return f, f.value(s((1,)), s((2, 1)))


# (name, call(s), whether the shapes are cache keys): call reads every
# shape through s, which keeps it, pads it, lists it or breaks it
CONTRACT = [
    ("g_skew", lambda s: g_skew(s((3, 2, 1)), s((1,))), True),
    ("g_to_schur", lambda s: g_to_schur(s((2, 1))), False),
    ("G_truncated", lambda s: G_truncated(s((2, 1)), 5), True),
    ("c_coeff", lambda s: c_coeff(s((3, 2, 1)), s((1,)), s((2, 1))), False),
    ("d_coeff", lambda s: d_coeff(s((2, 1)), s((1,)), s((2,))), False),
    ("tilde_c", lambda s: tilde_c(s((3, 2, 1)), s((1,)), s((2, 1))), False),
    ("tilde_d", lambda s: tilde_d(s((2, 1)), s((2, 1)), s((1,))), False),
    ("lr_coeff", lambda s: lr_coeff(s((3, 2, 1)), s((2, 1)), s((2, 1))), False),
    ("skew_pieri", lambda s: skew_pieri(2, s((2, 1)), s((1,))), False),
    ("inc_delta", lambda s: inc_delta(s((2, 1))), False),
    ("inc_zeta", lambda s: inc_zeta(s((2, 1))), False),
    ("inc_mobius", lambda s: inc_mobius(s((2, 1))), False),
    ("inc_it", lambda s: inc_it(s((2, 1))), False),
    ("inc_jt", lambda s: inc_jt(s((2, 1))), False),
    ("IncidenceFn", _incidence_fn, False),
    ("apply_operator", lambda s: apply_operator("Gperp", g_to_schur((3, 1)), mu=s((1,))),
     False),
]


@pytest.mark.parametrize("name, call, cached", CONTRACT, ids=[row[0] for row in CONTRACT])
def test_shape_contract(name, call, cached):
    want = call(tuple)
    assert call(lambda la: tuple(la) + (0, 0)) == want
    if cached:
        with pytest.raises(TypeError):  # a list is not a cache key
            call(list)
    else:
        assert call(list) == want
    before = g_skew.cache_info().currsize
    with pytest.raises(ValueError):
        call(lambda la: (1, 2))
    assert g_skew.cache_info().currsize == before


def test_g_skew_refuses_and_never_caches_a_non_partition():
    before = g_skew.cache_info().currsize
    for outer, inner in (((1, 2), ()), ((1, 3), (1,)), ((2, 1), (0, 1)),
                         ((1, 2), (3,)), ((2, -1), ())):
        for _ in range(2):
            with pytest.raises(ValueError):
                g_skew(outer, inner)
    with pytest.raises(ValueError):
        g_skew((1, 2))
    with pytest.raises(ValueError):
        g_to_schur((1, 2))
    assert g_skew.cache_info().currsize == before


def test_g_to_schur_is_the_g_skew_entry_of_la_and_the_empty_shape():
    la = (5, 3, 3, 1)
    g_skew(la, ())
    info = g_skew.cache_info()
    assert g_to_schur(la) is g_skew(la, ())
    assert g_to_schur(list(la)) is g_skew(la, ())
    after = g_skew.cache_info()
    assert after.misses == info.misses and after.currsize == info.currsize


def test_incidence_value_reads_a_canonical_pair_without_a_check(monkeypatch):
    f = inc_zeta((2, 1))
    checked = []
    real = operators.as_partition
    monkeypatch.setattr(operators, "as_partition", lambda la: checked.append(la) or real(la))
    assert f.value((1,), (2, 1)) == f.value([1], (2, 1, 0)) != f.value((2, 1), (1,))
    assert checked == [[1], (2, 1, 0), (2, 1), (1,)]
