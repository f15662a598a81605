import random

import pytest

from dualgroth.exprs import (ExprError, _parse_shape, _parse_t, eval_expr,
                             format_expr, parse_expr)
from dualgroth.groth import G_truncated, g_skew
from dualgroth.partitions import format_partition, partitions_up_to
from dualgroth.schur import SymFunc, TruncSeries, schur, series_mul
from dualgroth.tpoly import T, TPoly


def test_parse_atoms():
    assert parse_expr("s[2,1]") == ("s", (2, 1))
    assert parse_expr("g[3,2,1]/[1]") == ("g", (3, 2, 1), (1,))
    assert parse_expr("g[2]") == ("g", (2,), ())
    assert parse_expr("G[2,2]") == ("G", (2, 2))
    assert parse_expr("h2") == ("h", 2)
    assert parse_expr("e0") == ("e", 0)
    assert parse_expr("p12") == ("p", 12)
    assert parse_expr("t") == ("t",)
    assert parse_expr("42") == ("int", 42)
    assert parse_expr("g[]") == ("g", (), ())


def test_parse_structure():
    assert parse_expr("1+2*3") == ("add", ("int", 1), ("mul", ("int", 2), ("int", 3)))
    assert parse_expr("(1+2)*3") == ("mul", ("add", ("int", 1), ("int", 2)), ("int", 3))
    assert parse_expr("-2*g[1]") == ("mul", ("neg", ("int", 2)), ("g", (1,), ()))
    assert parse_expr("1-2-3") == ("sub", ("sub", ("int", 1), ("int", 2)), ("int", 3))


def test_parse_errors():
    for bad in ["", "s[2,", "g[1]/", "h", "q[1]", "1+", "s[1,2]", "(1", "t t"]:
        with pytest.raises(ExprError):
            parse_expr(bad)


def test_a_shape_reads_as_the_shape_of_an_atom():
    # a partition flag's text and the shape of an s[..] atom: one grammar
    assert _parse_shape("[3,2,1]") == (3, 2, 1)
    assert _parse_shape(" [ 3 , 2 ] ") == (3, 2)
    assert _parse_shape("[2,0]") == (2,)
    for la in partitions_up_to(6):
        assert _parse_shape(format_partition(la)) == la
    for text in ["[]", "[4,4,1]", "[1,2]", "[0,1]", "3,2,1", "[3,2", "[3,]",
                 "[3]x", "[3][1]", "[+3]", "[1_0]", "[-1]", "[3.0]", ""]:
        try:
            want = ("s", _parse_shape(text))
        except ExprError:
            with pytest.raises(ExprError):
                parse_expr("s" + text)
        else:
            assert parse_expr("s" + text) == want
    # a shape that is not a partition is named by its parsed parts
    for text in ["[1,2]", "[0,1]", "[2,-1]"]:
        with pytest.raises(ExprError) as flag:
            _parse_shape(text)
        with pytest.raises(ExprError) as atom:
            parse_expr("s" + text)
        assert str(flag.value) == str(atom.value)


def test_parse_t_value():
    # a --t text is t or an integer literal, optionally negated, read by
    # the expression tokenizer
    assert _parse_t("t") == T
    assert _parse_t(" t ") == T
    assert _parse_t("-3") == TPoly.const(-3)
    assert _parse_t("0") == TPoly.const(0)
    assert _parse_t("12") == TPoly.const(12)
    for text in ["x", "", "+3", "1_0", "-t", "--3", "(3)", "3.5", "2*t", "t t", "3 4"]:
        with pytest.raises(ExprError):
            _parse_t(text)


def _random_ast(rng, depth):
    if depth == 0:
        choice = rng.randrange(6)
        if choice == 0:
            return ("int", rng.randint(0, 9))
        if choice == 1:
            return ("t",)
        if choice == 2:
            return ("s", (2, 1))
        if choice == 3:
            return ("g", (2, 2), (1,))
        if choice == 4:
            return ("h", rng.randint(0, 3))
        return ("p", rng.randint(1, 3))
    op = rng.choice(["add", "sub", "mul", "neg"])
    if op == "neg":
        return ("neg", _random_ast(rng, depth - 1))
    return (op, _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))


def test_print_parse_round_trip():
    rng = random.Random(13)
    for _ in range(300):
        ast = _random_ast(rng, rng.randint(0, 4))
        assert parse_expr(format_expr(ast)) == ast


def test_eval_basics():
    assert eval_expr(parse_expr("h2")) == schur((2,))
    assert eval_expr(parse_expr("s[1]*s[1]")) == schur((2,)) + schur((1, 1))
    assert eval_expr(parse_expr("t*g[1]")) == schur((1,)).scale(T)
    assert eval_expr(parse_expr("g[3,2,1]/[1]")) == g_skew((3, 2, 1), (1,))
    assert eval_expr(parse_expr("2-2")) == SymFunc.zero()


def test_eval_series():
    node = parse_expr("G[1]*G[1]")
    got = eval_expr(node, cap=4)
    assert got == series_mul(G_truncated((1,), 4), G_truncated((1,), 4))
    mixed = eval_expr(parse_expr("G[1]+s[1]"), cap=3)
    assert isinstance(mixed, TruncSeries)
    with pytest.raises(ExprError):
        eval_expr(node)
    with pytest.raises(ExprError):
        eval_expr(parse_expr("G[2,1]"), cap=2)
    with pytest.raises(ExprError):
        eval_expr(parse_expr("G[1]+s[2,1]"), cap=2)


def test_eval_p0_rejected():
    with pytest.raises(ExprError):
        eval_expr(parse_expr("p0"))
