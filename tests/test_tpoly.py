import ast
import os
import random

import pytest

import dualgroth
from dualgroth.operators import IncidenceFn, expand_skew_sum
from dualgroth.schur import SymFunc, TruncSeries, raw_is_symmetric
from dualgroth.tpoly import (MultiPoly, ONE, T, TPoly, ZERO, _coerce, add_terms,
                             binomial_general, sum_rows)


def test_poly_arith_examples():
    assert T * (T + ONE) == TPoly((0, 1, 1))          # t^2 + t
    assert TPoly.const(1) + TPoly.const(-1) == ZERO
    cube = (T - ONE) ** 2 * (T - ONE)
    assert cube == TPoly((-1, 3, -3, 1))              # t^3 - 3t^2 + 3t - 1


def test_poly_eval_examples():
    assert (T * (T + ONE) ** 2).evaluate(1) == 4
    for n in range(2, 6):
        assert (T * (T + ONE) ** (n - 1)).evaluate(-1) == 0
    assert ((T - ONE) ** 2).evaluate(0) == 1


def _random_poly(rng, deg=8):
    return TPoly(tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, deg + 1))))


def test_ring_laws_randomized():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_eval_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(100):
        a, b = _random_poly(rng), _random_poly(rng)
        v = rng.randint(-4, 4)
        assert (a * b).evaluate(v) == a.evaluate(v) * b.evaluate(v)
        assert (a + b).evaluate(v) == a.evaluate(v) + b.evaluate(v)


def test_canonical_text():
    assert ZERO.text() == "0"
    assert ONE.text() == "1"
    assert TPoly.const(-1).text() == "-1"
    assert T.text() == "t"
    assert (T * (T + ONE)).text() == "t^2+t"
    assert ((T - ONE) ** 3).text() == "t^3-3*t^2+3*t-1"
    assert (T * -2 + ONE).text() == "-2*t+1"
    for n in range(-1000, 1001):
        assert TPoly.const(n).text() == str(n)


def test_as_int():
    assert TPoly.const(7).as_int() == 7
    assert ZERO.as_int() == 0
    with pytest.raises(ValueError):
        T.as_int()


def test_binomial_general():
    from math import comb
    for m in range(0, 8):
        for n in range(0, 8):
            assert binomial_general(m, n) == comb(m, n)
    assert binomial_general(3, -1) == 0
    assert binomial_general(-1, 1) == -1
    assert binomial_general(-2, 3) == -4
    assert binomial_general(-1, 2) == 1


def test_mpoly_is_symmetric():
    # MultiPoly terms, TPoly coefficients included, go through the raw check
    for terms in ({(2, 0): 1, (0, 2): 1},             # x1^2 + x2^2
                  {(2, 1): 1, (1, 2): 1},             # x1^2 x2 + x1 x2^2
                  {(1, 0): T, (0, 1): T}):            # t (x1 + x2)
        p = MultiPoly(2, terms)
        assert raw_is_symmetric(p.terms, p.nvars)
    for terms in ({(2, 0): 1, (0, 1): 1},             # x1^2 + x2
                  {(1, 0): T, (0, 1): 1}):            # t x1 + x2
        p = MultiPoly(2, terms)
        assert not raw_is_symmetric(p.terms, p.nvars)


@pytest.mark.parametrize("one", [1, ONE])
def test_add_terms_drops_cancelled_keys(one):
    acc = add_terms({}, [("a", one), ("b", one), ("c", one - one)])
    assert acc == {"a": one, "b": one}
    assert add_terms(acc, [("a", -one), ("b", one)]) is acc
    assert acc == {"b": one + one}


def test_mpoly_nvars_mismatch():
    for op in (MultiPoly.__add__, MultiPoly.__sub__):
        with pytest.raises(ValueError):
            op(MultiPoly(2, {(1, 0): 1}), MultiPoly(3, {(1, 0, 0): 1}))
    with pytest.raises(ValueError):
        MultiPoly(2, {(1,): 1})


# Dense reference for the scalar fast paths: plain lists of ints, stripped
# of trailing zeros only at the end.

def _dense(x):
    return [x] if isinstance(x, int) else list(x.coeffs)


def _strip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _dense_add(a, b):
    n = max(len(a), len(b))
    return _strip((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n))


def _dense_mul(a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _strip(out)


def _assert_canonical(r, dense):
    """r is the TPoly of the dense list, in canonical form."""
    assert type(r) is TPoly
    assert all(type(x) is int for x in r.coeffs)
    assert list(r.coeffs) == dense
    assert not r.coeffs or r.coeffs[-1] != 0
    assert bool(r) == bool(dense)
    if not r:
        assert r.coeffs == () and r == ZERO and r == 0
    built = TPoly(tuple(dense))
    assert r == built and hash(r) == hash(built)


def test_scalar_fast_paths_match_dense_reference():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    small = st.integers(-6, 6)
    polys = st.one_of(
        st.lists(small, max_size=6).map(lambda c: TPoly(tuple(c))),
        st.tuples(small, st.integers(0, 4)).map(       # monomials c*t^d
            lambda cd: TPoly((0,) * cd[1] + (cd[0],))))
    operands = st.one_of(small, polys)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(polys, operands, st.sampled_from(("free", "neg", "same")))
    @example(T, 0, "neg")                               # t + (-t)
    @example(T + ONE, 0, "same")                        # (t+1) - (t+1)
    @example(ONE, -1, "free")
    @example(ZERO, 0, "free")
    def check_binary(a, b, relation):
        if relation == "neg":
            b = -a
        elif relation == "same":
            b = a
        da, db = _dense(a), _dense(b)
        neg_b = [-x for x in db]
        neg_a = [-x for x in da]
        _assert_canonical(a + b, _dense_add(da, db))
        _assert_canonical(b + a, _dense_add(db, da))
        _assert_canonical(a - b, _dense_add(da, neg_b))
        _assert_canonical(b - a, _dense_add(db, neg_a))
        _assert_canonical(-a, _strip(neg_a))
        _assert_canonical(a * b, _dense_mul(da, db))
        _assert_canonical(b * a, _dense_mul(db, da))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(polys, st.integers(0, 12))
    @example(ZERO, 0)
    @example(ZERO, 3)
    @example(T, 12)
    @example(T - ONE, 5)
    def check_pow(a, n):
        want = [1]
        for _ in range(n):
            want = _dense_mul(want, _dense(a))
        _assert_canonical(a ** n, _strip(want))

    check_binary()
    check_pow()
    assert ZERO ** 0 == ONE


# Every integer in -256..256 has one shared TPoly: each route that builds a
# t-free coefficient returns that object.  Just outside the range each route
# builds a new object, equal to the value.

def _constant_routes(v):
    """v as a TPoly, by each route that builds a t-free coefficient."""
    routes = [_coerce(v), TPoly.const(v),
              TPoly(v - 1) + ONE, ONE + (v - 1), ZERO + v, TPoly(v) + 0,
              (T + v) - T,                              # the t terms cancel
              TPoly(v) * ONE, ONE * v, -TPoly(-v), -(-v * ONE),
              TPoly(v) ** 1, (T * 3) ** 0 * v]
    if v:
        routes += [sum_rows([(ONE, {"a": v})])["a"],
                   sum_rows([(TPoly(v), {"a": 1}), (T, {"b": 1})])["a"]]
    return routes


def test_small_constants_are_shared():
    assert _coerce(0) is ZERO and _coerce(1) is ONE
    for v in range(-256, 257):
        shared = _coerce(v)
        assert shared.coeffs == ((v,) if v else ())
        assert all(r is shared for r in _constant_routes(v)), v


def test_constants_outside_the_table_are_new_objects():
    for v in (-1000, -257, 257, 1000):
        routes = _constant_routes(v) + _constant_routes(v)
        assert all(r == v and r.coeffs == (v,) for r in routes)
        assert len({id(r) for r in routes}) == len(routes), v


def _coeffs_writers(tree):
    """The qualified names of the functions that assign, delete or setattr
    an attribute named coeffs."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Attribute) and node.attr == "coeffs" \
                and isinstance(node.ctx, (ast.Store, ast.Del)):
            found.add(".".join(scope))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("setattr", "delattr") \
                and any(isinstance(a, ast.Constant) and a.value == "coeffs" for a in node.args):
            found.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_the_constructors_assign_coeffs():
    # one mutated shared constant would corrupt every equal coefficient in
    # every cache
    src = os.path.dirname(dualgroth.__file__)
    writers = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                for where in _coeffs_writers(ast.parse(fh.read())):
                    writers.setdefault(where, []).append(name)
    assert writers == {"TPoly.__init__": ["tpoly.py"], "_mk": ["tpoly.py"]}


def test_coerce_refuses_a_bool():
    # True hashes and compares like 1, so it would pass for the shared 1
    builds = [lambda c: SymFunc({(1,): c}),
              lambda c: IncidenceFn((1,), {((), (1,)): c}),
              lambda c: TruncSeries(2, {(): c}),
              lambda c: expand_skew_sum({((1,), ()): c})]
    for build in builds:
        for flag in (True, False):
            with pytest.raises(TypeError, match=repr(flag)):
                build(flag)
        assert build(1) == build(TPoly(1)) == build(ONE)
    assert SymFunc({(1,): 1}).terms[(1,)] is ONE
