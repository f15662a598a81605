import json
import os
import random
import subprocess
import sys
import time

import pytest

from dualgroth import cli, groth, operators, schur, suites
from dualgroth.exprs import eval_expr, parse_expr
from dualgroth.groth import G_truncated, schur_to_g
from dualgroth.partitions import (contains, format_partition, partitions_up_to,
                                  size, sort_key, subpartitions)
from dualgroth.schur import hall
from dualgroth.serialize import term_list, to_text
from dualgroth.tpoly import ONE


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines()]


def test_expand_to_g_golden(capsys):
    code, lines = run_cli(capsys, "expand", "--to", "g", "g[3,2,1]/[1]")
    assert code == 0
    assert lines == [{"basis": "g", "terms": [
        {"partition": [2, 1], "coeff": "1"},
        {"partition": [3, 1], "coeff": "-1"},
        {"partition": [2, 2], "coeff": "-1"},
        {"partition": [2, 1, 1], "coeff": "-1"},
        {"partition": [3, 2], "coeff": "1"},
        {"partition": [3, 1, 1], "coeff": "1"},
        {"partition": [2, 2, 1], "coeff": "1"}]}]


# Whole output lines, byte for byte: a key that cancels, a coefficient
# whose t-part cancels to a constant, perps at t and at -1, and a skew g
# in two pieces, (2,2)/(1) and (2,1), in both bases.
GOLDEN = [
    (("expand", "--to", "s", "(s[2]-s[1,1])*s[1]"),
     '{"basis":"s","terms":[{"partition":[3],"coeff":"1"},'
     '{"partition":[1,1,1],"coeff":"-1"}]}'),
    (("expand", "--to", "s", "(t*s[2]+s[1,1]-t*s[1,1])*s[1]"),
     '{"basis":"s","terms":[{"partition":[3],"coeff":"t"},'
     '{"partition":[2,1],"coeff":"1"},{"partition":[1,1,1],"coeff":"-t+1"}]}'),
    (("expand", "--to", "g", "(t*s[2]+s[1,1]-t*s[1,1])*s[1]"),
     '{"basis":"g","terms":[{"partition":[1],"coeff":"-t+1"},'
     '{"partition":[2],"coeff":"-1"},{"partition":[1,1],"coeff":"2*t-2"},'
     '{"partition":[3],"coeff":"t"},{"partition":[2,1],"coeff":"1"},'
     '{"partition":[1,1,1],"coeff":"-t+1"}]}'),
    (("apply", "--op", "Hperp", "--t", "t", "--to", "s", "s[3,2,1]-2*s[2,1]"),
     '{"basis":"s","terms":[{"partition":[1],"coeff":"-2*t^2"},'
     '{"partition":[2],"coeff":"-2*t"},{"partition":[1,1],"coeff":"-2*t"},'
     '{"partition":[2,1],"coeff":"t^3-2"},{"partition":[3,1],"coeff":"t^2"},'
     '{"partition":[2,2],"coeff":"t^2"},{"partition":[2,1,1],"coeff":"t^2"},'
     '{"partition":[3,2],"coeff":"t"},{"partition":[3,1,1],"coeff":"t"},'
     '{"partition":[2,2,1],"coeff":"t"},{"partition":[3,2,1],"coeff":"1"}]}'),
    (("apply", "--op", "Eperp", "--t", "-1", "--to", "g", "g[3,1]"),
     '{"basis":"g","terms":[{"partition":[2],"coeff":"1"},'
     '{"partition":[3],"coeff":"-1"},{"partition":[2,1],"coeff":"-1"},'
     '{"partition":[3,1],"coeff":"1"}]}'),
    (("expand", "--to", "s", "g[4,4,2,1]/[3,2]"),
     '{"basis":"s","terms":[{"partition":[4],"coeff":"1"},'
     '{"partition":[3,1],"coeff":"1"},{"partition":[2,2],"coeff":"1"},'
     '{"partition":[4,1],"coeff":"2"},{"partition":[3,2],"coeff":"2"},'
     '{"partition":[3,1,1],"coeff":"2"},{"partition":[2,2,1],"coeff":"2"},'
     '{"partition":[4,2],"coeff":"1"},{"partition":[4,1,1],"coeff":"1"},'
     '{"partition":[3,3],"coeff":"1"},{"partition":[3,2,1],"coeff":"2"},'
     '{"partition":[3,1,1,1],"coeff":"1"},{"partition":[2,2,2],"coeff":"1"},'
     '{"partition":[2,2,1,1],"coeff":"1"}]}'),
    (("expand", "--to", "g", "g[4,4,2,1]/[3,2]"),
     '{"basis":"g","terms":[{"partition":[2,1],"coeff":"-1"},'
     '{"partition":[3,1],"coeff":"2"},{"partition":[2,2],"coeff":"1"},'
     '{"partition":[2,1,1],"coeff":"2"},{"partition":[4,1],"coeff":"-1"},'
     '{"partition":[3,2],"coeff":"-3"},{"partition":[3,1,1],"coeff":"-3"},'
     '{"partition":[2,2,1],"coeff":"-3"},{"partition":[2,1,1,1],"coeff":"-1"},'
     '{"partition":[4,2],"coeff":"1"},{"partition":[4,1,1],"coeff":"1"},'
     '{"partition":[3,3],"coeff":"1"},{"partition":[3,2,1],"coeff":"2"},'
     '{"partition":[3,1,1,1],"coeff":"1"},{"partition":[2,2,2],"coeff":"1"},'
     '{"partition":[2,2,1,1],"coeff":"1"}]}'),
]


@pytest.mark.parametrize("argv,text", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_output_bytes(capsys, argv, text):
    assert cli.main(list(argv)) == 0
    assert capsys.readouterr().out == text + "\n"


def test_term_list_order_is_sort_key_order():
    pool = partitions_up_to(7)
    rng = random.Random(37)
    for _ in range(200):
        keys = rng.sample(pool, rng.randint(0, 30)) + [()] * rng.randint(0, 1)
        got = [tuple(e["partition"]) for e in term_list(dict.fromkeys(keys, ONE))]
        assert got == sorted(set(keys), key=sort_key)


def test_expand_examples(capsys):
    code, lines = run_cli(capsys, "expand", "--to", "s", "h2")
    assert code == 0
    assert lines == [{"basis": "s", "terms": [{"partition": [2], "coeff": "1"}]}]
    code, lines = run_cli(capsys, "expand", "--to", "s", "g[1,1]")
    assert lines == [{"basis": "s", "terms": [
        {"partition": [1], "coeff": "1"}, {"partition": [1, 1], "coeff": "1"}]}]


def test_apply_examples(capsys):
    code, lines = run_cli(capsys, "apply", "--op", "I", "g[2,1]")
    assert code == 0
    assert lines == [{"basis": "g", "terms": [
        {"partition": [], "coeff": "1"},
        {"partition": [1], "coeff": "1"},
        {"partition": [2], "coeff": "1"},
        {"partition": [1, 1], "coeff": "1"},
        {"partition": [2, 1], "coeff": "1"}]}]
    code, lines = run_cli(capsys, "apply", "--op", "Iinv", "g[1]")
    assert lines == [{"basis": "g", "terms": [
        {"partition": [], "coeff": "-1"}, {"partition": [1], "coeff": "1"}]}]
    code, lines = run_cli(capsys, "apply", "--op", "Hperp", "--t", "0",
                          "--to", "s", "s[2,1]")
    assert lines == [{"basis": "s", "terms": [{"partition": [2, 1], "coeff": "1"}]}]
    # H(0) = 1, so its perp fixes g[2,1] whatever the basis
    code, lines = run_cli(capsys, "apply", "--op", "Hperp", "--t", "0", "g[2,1]")
    assert code == 0
    assert lines == [{"basis": "g", "terms": [{"partition": [2, 1], "coeff": "1"}]}]


def test_gperp_below_degree_is_zero(capsys):
    for mu, expr in (("[3]", "g[2]"), ("[1]", "0")):
        code, lines = run_cli(capsys, "apply", "--op", "Gperp", "--mu", mu, expr)
        assert code == 0
        assert lines == [{"basis": "g", "terms": []}]


@pytest.mark.parametrize("argv", [
    ("apply", "--op", "I", "--t", "5", "s[2]"),
    ("apply", "--op", "Iinv", "--t", "t", "s[2]"),
    ("apply", "--op", "Gperp", "--mu", "[1]", "--t", "1", "s[2]"),
    ("apply", "--op", "Hperp", "--mu", "[1]", "s[2]"),
    ("apply", "--op", "I", "--mu", "[1]", "s[2]"),
    ("inner", "--series", "G", "--lambda", "[1]", "--t", "1", "g[1]"),
    ("inner", "--series", "H", "--lambda", "[1]", "g[1]"),
    ("inner", "--series", "E", "--lambda", "[1]", "--t", "1", "g[1]"),
    ("expand", "--to", "s", "--cap", "2", "s[3]"),
])
def test_flag_that_the_op_ignores_is_a_usage_error(capsys, argv):
    assert cli.main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, err", [
    (("apply", "--op", "I", "G[1]"), "operators act on polynomial expressions only"),
    (("apply", "--op", "Hperp", "--to", "s", "s[1]+G[2]"),
     "operators act on polynomial expressions only"),
    (("inner", "--series", "H", "G[1]"), "the pairing takes a polynomial expression"),
    (("inner", "--series", "G", "--lambda", "[1]", "G[1]*g[1]"),
     "the pairing takes a polynomial expression"),
])
def test_a_G_atom_is_refused_as_not_a_polynomial(capsys, argv, err):
    # neither command has --cap, so the error names the polynomial it needs
    assert cli.main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: %s\n" % err


@pytest.mark.parametrize("expr, refusal", [
    ("G[1]*s[3]", lambda: schur.truncate(schur.schur((3,)), 2)),
    ("s[3]+G[1]", lambda: schur.truncate(schur.schur((3,)), 2)),
    ("G[2,1]", lambda: G_truncated((2, 1), 2)),
])
def test_a_value_past_the_cap_is_the_engines_refusal(capsys, expr, refusal):
    # the engine's ValueError is the one message, raised by the values
    with pytest.raises(ValueError) as exc:
        refusal()
    assert cli.main(["expand", "--to", "s", "--cap", "2", expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: %s\n" % exc.value


def test_staircase_g_expands(capsys):
    code, lines = run_cli(capsys, "expand", "--to", "s", "g[6,5,4,3,2,1]")
    assert code == 0
    terms = lines[0]["terms"]
    assert len(terms) == 132
    assert terms[0] == {"partition": [6], "coeff": "1"}
    assert terms[-1] == {"partition": [6, 5, 4, 3, 2, 1], "coeff": "1"}
    # (H(1), g_la) = 1 for every la
    code, lines = run_cli(capsys, "inner", "--series", "H", "--t", "1",
                          "g[6,5,4,3,2,1]")
    assert code == 0 and lines == [{"value": "1"}]
    code, lines = run_cli(capsys, "expand", "--to", "g", "g[7,6,5,4,3,2,1]")
    assert code == 0
    assert lines == [{"basis": "g", "terms": [
        {"partition": [7, 6, 5, 4, 3, 2, 1], "coeff": "1"}]}]


def test_inner_examples(capsys):
    code, lines = run_cli(capsys, "inner", "--series", "H", "--t", "t", "g[3,1]")
    assert code == 0 and lines == [{"value": "t^3"}]
    code, lines = run_cli(capsys, "inner", "--series", "E", "--t", "-1", "g[]")
    assert lines == [{"value": "1"}]
    code, lines = run_cli(capsys, "inner", "--series", "G", "--lambda", "[1]", "g[1]")
    assert lines == [{"value": "1"}]


def _random_g_expr(rng):
    # integer and t coefficients on s, g and skew g atoms of size <= 4
    pool = partitions_up_to(4)
    expr = ""
    for _ in range(rng.randint(1, 4)):
        outer = pool[rng.randrange(len(pool))]
        atom = rng.choice("sg") + format_partition(outer)
        if atom[0] == "g" and outer and rng.random() < 0.5:
            inner = subpartitions(outer)
            atom += "/" + format_partition(inner[rng.randrange(len(inner))])
        coeff = rng.choice(["1", "2", "t", "(t-2)", "(1+t*t)"])
        # a leading minus would read as a flag
        expr += (rng.choice("+-") if expr else "") + coeff + "*" + atom
    return expr


def test_inner_G_matches_the_series_pairing(capsys):
    # oracle: the Hall pairing against G_la truncated at the degree
    rng = random.Random(29)
    for _ in range(25):
        expr = _random_g_expr(rng)
        value = eval_expr(parse_expr(expr))
        for la in partitions_up_to(4):
            want = hall(G_truncated(la, max(value.degree(), size(la))), value)
            assert cli.main(["inner", "--series", "G", "--lambda",
                             format_partition(la), expr]) == 0
            assert capsys.readouterr().out == to_text({"value": want.text()}) + "\n"


def test_g_coordinates_pair_no_G_series(capsys, monkeypatch):
    def boom(*args):
        raise AssertionError("a g coordinate built or paired a G series")

    for mod in (groth, operators, schur, cli):
        for name in ("G_truncated", "hall"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, boom)
    assert groth.d_coeff((1,), (1,), (1,)) == -1
    assert operators.tilde_d((5, 3, 2, 1), (3, 2, 1), (3, 2, 1)) == -1
    code, lines = run_cli(capsys, "inner", "--series", "G", "--lambda", "[1]",
                          "g[2,1]+t*g[1]*g[1]")
    assert code == 0 and lines == [{"value": "-t"}]


def test_g_coordinates_expand_only_shapes_containing_la(capsys, monkeypatch):
    # [g_la] f reads only the Schur terms of f on shapes containing la, so at
    # the top degree of a product no route expands a shape outside la: every
    # route reads groth's one reader, which expands through groth.schur_to_g
    expanded = []

    def spy(f):
        expanded.append(set(f.terms))
        return schur_to_g(f)

    monkeypatch.setattr(groth, "schur_to_g", spy)
    la, mu = (4, 4, 3, 3, 2, 2, 1, 1), (4, 3, 2, 1)
    assert groth.d_coeff(la, mu, mu) == 1
    assert operators.tilde_d(la, mu, mu) == 1
    code, lines = run_cli(capsys, "inner", "--series", "G", "--lambda",
                          format_partition(la), "g[4,3,2,1]*g[4,3,2,1]")
    assert code == 0 and lines == [{"value": "1"}]
    assert len(expanded) == 3
    assert all(contains(sigma, la) for shapes in expanded for sigma in shapes)


def test_constants(capsys):
    code, lines = run_cli(capsys, "constants", "--family", "c",
                          "--lambda", "[3,2,1]", "--mu", "[1]", "--nu", "[2,1]")
    assert code == 0 and lines[0]["value"] == 1
    code, lines = run_cli(capsys, "constants", "--family", "d",
                          "--lambda", "[1]", "--mu", "[1]", "--nu", "[1]")
    assert lines[0]["value"] == -1
    code, lines = run_cli(capsys, "constants", "--family", "lr",
                          "--lambda", "[2]", "--mu", "[1]", "--nu", "[1]")
    assert lines[0]["value"] == 1
    # mu outside la: d is 0 at once and dtilde cuts mu and nu to la, so
    # neither builds g_mu g_nu up to degree 31, nor the 42-box product of
    # two staircases [6,...,1] under la = [2,1]
    start = time.monotonic()
    code, lines = run_cli(capsys, "constants", "--family", "dtilde", "--lambda", "[2,1]",
                          "--mu", "[6,5,4,3,2,1]", "--nu", "[6,5,4,3,2,1]")
    assert code == 0 and lines[0]["value"] == 1
    code, lines = run_cli(capsys, "constants", "--family", "dtilde",
                          "--lambda", "[2]", "--mu", "[30]", "--nu", "[1]")
    assert code == 0 and lines[0]["value"] == 1
    code, lines = run_cli(capsys, "constants", "--family", "d",
                          "--lambda", "[2]", "--mu", "[30]", "--nu", "[1]")
    assert code == 0 and lines[0]["value"] == 0
    assert time.monotonic() - start < 10
    # mu outside la: the interval [mu, la] of ctilde is empty
    code, lines = run_cli(capsys, "constants", "--family", "ctilde",
                          "--lambda", "[1]", "--mu", "[2]", "--nu", "[1]")
    assert code == 0 and lines[0]["value"] == 0


def test_expand_series_and_errors(capsys):
    code, lines = run_cli(capsys, "expand", "--to", "s", "--cap", "3", "G[1]")
    assert code == 0
    assert lines == [{"basis": "s", "cap": 3, "terms": [
        {"partition": [1], "coeff": "1"},
        {"partition": [1, 1], "coeff": "-1"},
        {"partition": [1, 1, 1], "coeff": "1"}]}]
    code = cli.main(["expand", "--to", "s", "G[1]"])
    assert code == 2
    code = cli.main(["expand", "--to", "g", "--cap", "3", "G[1]"])
    assert code == 2
    code = cli.main(["expand", "--to", "s", "s[2,"])
    assert code == 2
    code = cli.main(["expand", "--to", "s", "(" * 3000 + "s[1]" + ")" * 3000])
    assert code == 2


def test_bad_partition_is_named_by_its_parsed_parts(capsys):
    # a partition flag and a partition atom print the same parsed integers
    assert cli.main(["constants", "--family", "lr", "--lambda", "[1, 2]",
                     "--mu", "[1]", "--nu", "[1]"]) == 2
    assert capsys.readouterr().err == (
        "error: bad --lambda: partition parts must be weakly decreasing: [1, 2]\n")
    assert cli.main(["expand", "--to", "s", "s[1,2]"]) == 2
    assert capsys.readouterr().err == (
        "error: partition parts must be weakly decreasing: [1, 2]\n")


@pytest.mark.parametrize("t, err", [
    ("+3", "expected 'int', found '+'"),
    ("1_0", "bad character at position 1 in '1_0'"),
    ("x", "bad character at position 0 in 'x'"),
    ("2*t", "expected 'end', found '*'"),
])
def test_t_flag_is_read_by_the_expression_tokenizer(capsys, t, err):
    for argv in (("apply", "--op", "Hperp", "--t", t, "s[2,1]"),
                 ("inner", "--series", "E", "--t", t, "g[2,1]")):
        assert cli.main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: bad --t: %s\n" % err


def test_flat_sum_of_many_terms(capsys):
    code, lines = run_cli(capsys, "expand", "--to", "s", "+".join(["s[1]"] * 3000))
    assert code == 0
    assert lines == [{"basis": "s", "terms": [{"partition": [1], "coeff": "3000"}]}]


def test_deterministic_output(capsys):
    first = run_cli(capsys, "expand", "--to", "g", "g[2,2]/[1]")
    second = run_cli(capsys, "expand", "--to", "g", "g[2,2]/[1]")
    assert first == second


def test_verify_output_is_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        assert cli.main(["verify", "--suite", "incidence-inverse"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0].splitlines()[-1])["cases"] > 0


def test_verify_list_and_pass(capsys):
    code, lines = run_cli(capsys, "verify", "--list")
    assert code == 0
    names = {line["suite"] for line in lines}
    assert "i-equals-one" in names and "counterexamples" in names
    assert len(names) == len(suites.SUITES)
    code, lines = run_cli(capsys, "verify", "--suite", "example-321-1")
    assert code == 0
    assert lines[-1]["failures"] == 0
    assert all(line["status"] == "pass" for line in lines[:-1])


def test_verify_small_max_size(capsys):
    code, lines = run_cli(capsys, "verify", "--suite", "i-equals-one",
                          "--max-size", "3")
    assert code == 0
    assert lines[-1]["max_size"] == 3
    assert lines[-1]["cases"] == 22


@pytest.mark.parametrize("suite, bound", [("i-inverse", "-1"),
                                          ("series-generators", "0")])
def test_verify_rejects_bound_below_one(capsys, suite, bound):
    assert run_cli(capsys, "verify", "--suite", suite, "--max-size", bound) == (2, [])


def test_verify_without_cases_fails(capsys, monkeypatch):
    monkeypatch.setitem(suites.SUITES, "empty-demo",
                        suites.SuiteSpec(lambda max_size, rng: iter(()), 1, "demo"))
    assert run_cli(capsys, "verify", "--suite", "empty-demo") == (2, [])


def test_verify_reports_failure_witnesses(capsys):
    def bad_suite(max_size, rng):
        yield "always-fails", lambda: (False, "lhs-canonical", "rhs-canonical")
        yield "passes", lambda: (True, None, None)

    suites.SUITES["broken-demo"] = suites.SuiteSpec(bad_suite, 1, "demo")
    try:
        code, lines = run_cli(capsys, "verify", "--suite", "broken-demo")
    finally:
        del suites.SUITES["broken-demo"]
    assert code == 1
    assert lines[0]["status"] == "fail"
    assert lines[0]["lhs"] == "lhs-canonical"
    assert lines[0]["rhs"] == "rhs-canonical"
    assert lines[1]["status"] == "pass"
    assert lines[-1]["failures"] == 1


def test_verify_unknown_suite(capsys):
    assert cli.main(["verify", "--suite", "nope"]) == 2
    assert cli.main(["verify"]) == 2


def _fresh_cli(*argv):
    """Exit code and stdout of the CLI in a new interpreter process."""
    # the child imports the package from the same source tree as this process
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "dualgroth.cli", *argv],
                         capture_output=True, text=True, env=env)
    return out.returncode, out.stdout, out.stderr


def test_console_entry_point():
    code, out, _ = _fresh_cli("inner", "--series", "H", "--t", "t", "g[2,2]")
    assert code == 0
    assert json.loads(out) == {"value": "t^2"}


def test_reused_parser_matches_fresh_process(capsys):
    # main builds its parser once per process; a usage error must leave it
    # fit for the calls that follow
    calls = [
        ["expand", "--to", "x", "s[1]"],
        ["expand", "--to", "s", "s[2,1]*s[1]"],
        ["constants", "--family", "lr", "--lambda", "[3,2,1]",
         "--mu", "[2,1]", "--nu", "[2,1]"],
        ["apply", "--op", "Hperp", "--t", "t", "--to", "s", "s[3,1]"],
    ]
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        assert (code, capsys.readouterr().out) == _fresh_cli(*argv)[:2]
    assert cli.build_parser() is cli.build_parser()


def test_large_row_product_is_pieri(capsys):
    # s_60 s_60 = sum of s_(120-i, i): the product grows only the answer's
    # shapes, never the partitions of 120
    code, lines = run_cli(capsys, "expand", "--to", "s", "s[60]*s[60]")
    assert code == 0
    terms = lines[0]["terms"]
    assert sorted((t["partition"], t["coeff"]) for t in terms) == sorted(
        ([120 - i, i] if i else [120], "1") for i in range(61))


def test_lr_constant_on_long_rows():
    # one skew table read: nothing recurses once per cell
    code, out, err = _fresh_cli("constants", "--family", "lr", "--lambda",
                                "[2000]", "--mu", "[1000]", "--nu", "[1000]")
    assert (code, err) == (0, "")
    assert '"value":1}' in out


def test_G_series_on_a_long_column():
    # the g-expansion of s[1^80] reads one strict-filling table, over the
    # columns inside [1^80], so this never builds the partitions of 80
    column = "[%s]" % ",".join(["1"] * 80)
    code, out, err = _fresh_cli("inner", "--series", "G", "--lambda", column,
                                "s" + column)
    assert (code, err) == (0, "")
    assert out == '{"value":"1"}\n'


@pytest.mark.parametrize("expr, to", [
    ("e1200", "g"),
    ("g[%s]" % ",".join(["1"] * 1200), "s"),
], ids=["e1200", "g-column-1200"])
def test_too_many_rows_is_a_usage_error(expr, to):
    # the tableau kernels recurse once per row; past the recursion limit the
    # request is refused with exit 2, not a traceback
    code, out, err = _fresh_cli("expand", "--to", to, expr)
    assert (code, out) == (2, "")
    assert err.startswith("error: input too large") and "Traceback" not in err
