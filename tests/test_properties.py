"""Property tests: the expression printer against the parser, and the CLI's
exit-code contract on generated command lines.

Examples are derandomized, so every run checks the same inputs.  Atoms
have size at most 5 and a generated command holds at most five of them,
which keeps each command well under a second.
"""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dualgroth import cli  # noqa: E402
from dualgroth.exprs import format_expr, parse_expr  # noqa: E402
from dualgroth.partitions import format_partition, partitions_up_to  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)

partitions = st.sampled_from(partitions_up_to(5))

atoms = st.one_of(
    st.integers(0, 99).map(lambda n: ("int", n)),
    st.just(("t",)),
    partitions.map(lambda la: ("s", la)),
    partitions.map(lambda la: ("G", la)),
    st.tuples(st.just("g"), partitions, partitions),
    st.tuples(st.sampled_from("hep"), st.integers(0, 5)),
)

trees = st.recursive(
    atoms,
    lambda kids: st.one_of(kids.map(lambda k: ("neg", k)),
                           st.tuples(st.sampled_from(("add", "sub", "mul")), kids, kids)),
    max_leaves=8)


@SETTINGS
@given(trees)
def test_format_parse_round_trip(tree):
    text = format_expr(tree)
    assert parse_expr(text) == tree
    assert format_expr(parse_expr(text)) == text


# pieces of expression text: whole atoms of size <= 5, operators and the
# stray symbols a mistyped command holds; an integer starts with a space
# so that it never runs into the digits of the piece before it
pieces = st.one_of(
    atoms.map(lambda a: " %d" % a[1] if a[0] == "int" else format_expr(a)),
    st.sampled_from(["+", "-", "*", "(", ")", "[", "]", ",", "/", "s", "g",
                     "q", " ", "[2,3]", "[0]", "p0", "G[]"]),
)
exprs = st.one_of(st.recursive(atoms, lambda kids: st.tuples(
                      st.sampled_from(("add", "sub", "mul")), kids, kids),
                                max_leaves=3).map(format_expr),
                  st.lists(pieces, max_size=5).map("".join))
part_args = st.sampled_from([format_partition(la) for la in partitions_up_to(5)]
                           + ["", "[", "[2,3]", "[-1]", "x", "[1,,1]"])
t_args = st.sampled_from(["t", "0", "1", "-1", "2", "x", ""])


def _options(draw, required, optional):
    """Every required flag, each optional one by a coin toss, in a drawn
    order."""
    argv = []
    table = required + [opt for opt in optional if draw(st.booleans())]
    for flag, values in draw(st.permutations(table)):
        argv += [flag, draw(values)]
    return argv


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["expand", "apply", "inner", "constants",
                                    "verify", "nope"]))
    argv = [command]
    if command == "expand":
        argv += _options(draw, [("--to", st.sampled_from(["s", "g", "x"]))],
                         [("--cap", st.sampled_from(["-1", "0", "3", "8", "x"]))])
    elif command == "apply":
        argv += _options(draw, [("--op", st.sampled_from(["I", "Iinv", "Hperp", "Eperp",
                                                          "Gperp", "X"]))],
                         [("--t", t_args), ("--mu", part_args),
                          ("--to", st.sampled_from(["s", "g"]))])
    elif command == "inner":
        argv += _options(draw, [("--series", st.sampled_from(["H", "E", "G", "X"]))],
                         [("--t", t_args), ("--lambda", part_args)])
    elif command == "constants":
        argv += _options(draw, [("--family", st.sampled_from(["lr", "c", "d", "ctilde",
                                                              "dtilde", "x"])),
                                ("--lambda", part_args), ("--mu", part_args),
                                ("--nu", part_args)], [])
    elif command == "verify":
        # a suite always runs at a small bound
        argv += _options(draw, [("--max-size", st.sampled_from(["-1", "0", "1", "2", "x"]))],
                         [("--suite", st.sampled_from(["hopf-axioms", "i-inverse",
                                                       "perp-adjoint", "h-perp-basis",
                                                       "nope"]))])
        if draw(st.booleans()):
            argv.append("--list")
    if command in ("expand", "apply", "inner") or not draw(st.integers(0, 9)):
        argv.append(draw(exprs))
    return argv


@SETTINGS
@given(command_lines())
def test_cli_exit_codes_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
