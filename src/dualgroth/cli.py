"""Command-line interface.

Subcommands: expand, apply, inner, constants, verify.  Output is UTF-8
JSON, one object per line; identical invocations produce byte-identical
output.  Exit codes: 0 success, 1 verification failure, 2 usage or parse
error.
"""

import argparse
import sys
from functools import cache

from .exprs import ExprError, _parse_shape, _parse_t, eval_expr, parse_expr
from .groth import _g_coordinate, c_coeff, d_coeff, schur_to_g
from .operators import apply_operator, tilde_c, tilde_d
from .schur import E_series, H_series, TruncSeries, hall, lr_coeff
from .serialize import g_expansion_json, series_json, symfunc_json, to_text
from .suites import DEFAULT_SEED, SUITES, iter_cases
from .tpoly import T


def _emit(obj):
    sys.stdout.write(to_text(obj) + "\n")
    sys.stdout.flush()


def _parse_flag(parse, text, name):
    """The flag name's text read by parse; a refusal names the flag."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ExprError("bad %s: %s" % (name, exc))


def _polynomial(text, why):
    """The SymFunc value of the expression text; a G atom in it is the error why."""
    node = parse_expr(text)
    if "G" in text:  # the tokenizer admits the letter G only as a G atom
        raise ExprError(why)
    return eval_expr(node)


def _emit_in(basis, f):
    """Write the SymFunc f in the s or the g basis."""
    _emit(symfunc_json(f) if basis == "s" else g_expansion_json(schur_to_g(f)))


def cmd_expand(args):
    node = parse_expr(args.expr)
    # the tokenizer admits the letter G only as a G atom
    if args.cap is not None and "G" not in args.expr:
        raise ExprError("--cap applies to expressions with G atoms only")
    value = eval_expr(node, cap=args.cap)
    if not isinstance(value, TruncSeries):
        _emit_in(args.to, value)
    elif args.to == "s":
        _emit(series_json(value))
    else:
        raise ExprError("a truncated series has no finite g expansion; "
                        "expand --to s instead")
    return 0


def cmd_apply(args):
    if args.t is not None and args.op not in ("Hperp", "Eperp"):
        raise ExprError("--t applies to Hperp and Eperp only")
    if args.mu is not None and args.op != "Gperp":
        raise ExprError("--mu applies to Gperp only")
    value = _polynomial(args.expr, "operators act on polynomial expressions only")
    t_param = _parse_flag(_parse_t, args.t, "--t") if args.t is not None else None
    mu = _parse_flag(_parse_shape, args.mu, "--mu") if args.mu is not None else None
    _emit_in(args.to, apply_operator(args.op, value, t_param=t_param, mu=mu))
    return 0


def cmd_inner(args):
    if args.t is not None and args.series == "G":
        raise ExprError("--t applies to the H and E series only")
    if args.la is not None and args.series != "G":
        raise ExprError("--lambda applies to the G series only")
    value = _polynomial(args.expr, "the pairing takes a polynomial expression")
    if args.series in ("H", "E"):
        t_param = _parse_flag(_parse_t, args.t, "--t") if args.t is not None else T
        series = (H_series if args.series == "H" else E_series)(value.degree(), t_param)
        result = hall(series, value)
    else:
        if args.la is None:
            raise ExprError("--series G needs --lambda")
        # <G_la, f> = [g_la] f by duality
        result = _g_coordinate(value, _parse_flag(_parse_shape, args.la, "--lambda"))
    _emit({"value": result.text()})
    return 0


def cmd_constants(args):
    la = _parse_flag(_parse_shape, args.la, "--lambda")
    mu = _parse_flag(_parse_shape, args.mu, "--mu")
    nu = _parse_flag(_parse_shape, args.nu, "--nu")
    fams = {"lr": lr_coeff, "c": c_coeff, "d": d_coeff,
            "ctilde": tilde_c, "dtilde": tilde_d}
    value = fams[args.family](la, mu, nu)
    _emit({"family": args.family, "lambda": list(la), "mu": list(mu),
           "nu": list(nu), "value": value})
    return 0


def cmd_verify(args):
    if args.list:
        for name in sorted(SUITES):
            spec = SUITES[name]
            _emit({"suite": name, "default_max_size": spec.default_max_size,
                   "description": spec.description})
        return 0
    if args.suite is None:
        raise ExprError("verify needs --suite NAME or --list")
    if args.suite not in SUITES:
        raise ExprError("unknown suite %r; try verify --list" % args.suite)
    if args.max_size is not None and args.max_size < 1:
        raise ExprError("--max-size must be at least 1")
    failures = 0
    count = 0
    for cid, thunk in iter_cases(args.suite, args.max_size, args.seed):
        ok, lhs, rhs = thunk()
        count += 1
        record = {"suite": args.suite, "case": cid,
                  "status": "pass" if ok else "fail"}
        if not ok:
            failures += 1
            record["lhs"] = lhs
            record["rhs"] = rhs
        _emit(record)
    bound = (SUITES[args.suite].default_max_size
             if args.max_size is None else args.max_size)
    if not count:
        raise ExprError("suite %r yields no cases at max-size %d"
                        % (args.suite, bound))
    _emit({"suite": args.suite, "max_size": bound,
           "seed": DEFAULT_SEED if args.seed is None else args.seed,
           "cases": count, "failures": failures})
    return 1 if failures else 0


@cache
def build_parser():
    """The argument parser, built once per process and reused by main."""
    parser = argparse.ArgumentParser(
        prog="dualgroth",
        description="Exact computations in the dual stable Grothendieck basis "
                    "of the ring of symmetric functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand an expression in a basis")
    p.add_argument("--to", choices=("s", "g"), required=True)
    p.add_argument("--cap", type=int, default=None,
                   help="degree cap, required when G atoms occur")
    p.add_argument("expr")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("apply", help="apply an operator to an expression")
    p.add_argument("--op", choices=("I", "Iinv", "Hperp", "Eperp", "Gperp"),
                   required=True)
    p.add_argument("--t", default=None, help="integer or the literal t")
    p.add_argument("--mu", default=None, help="partition argument for Gperp")
    p.add_argument("--to", choices=("s", "g"), default="g")
    p.add_argument("expr")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("inner", help="Hall pairing against a named series")
    p.add_argument("--series", choices=("H", "E", "G"), required=True)
    p.add_argument("--t", default=None, help="integer or the literal t")
    p.add_argument("--lambda", dest="la", default=None,
                   help="partition indexing the G series")
    p.add_argument("expr")
    p.set_defaults(func=cmd_inner)

    p = sub.add_parser("constants", help="structure-constant queries")
    p.add_argument("--family", choices=("lr", "c", "d", "ctilde", "dtilde"),
                   required=True)
    p.add_argument("--lambda", dest="la", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", default=None)
    p.add_argument("--list", action="store_true")
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ExprError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except RecursionError:  # the tableau kernels recurse once per row
        sys.stderr.write("error: input too large for the recursion limit\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
