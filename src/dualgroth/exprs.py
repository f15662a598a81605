"""Expression language for the command line.

Atoms are basis elements (``s[2,1]``, ``g[3,2,1]/[1]``, ``G[2]``, ``h2``,
``e3``, ``p4``), integer literals and the parameter ``t``; they combine
with ``+``, ``-``, ``*`` and parentheses.  Parsing a printed canonical
form returns the identical syntax tree.
"""

import re
from operator import add, mul, sub

from .groth import G_truncated, g_skew
from .partitions import as_partition, format_partition
from .schur import SymFunc, e_gen, h_gen, p_gen, schur
from .tpoly import T, TPoly


class ExprError(ValueError):
    """Raised on malformed expression text or an unusable evaluation."""


_TOKEN = re.compile(r"\s*(?:(\d+)|([sgGhept])|([\[\],/+\-*()]))")


def tokenize(text):
    text = text.rstrip()
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExprError("bad character at position %d in %r" % (pos, text))
        num, name, sym = m.groups()
        if num is not None:
            tokens.append(("int", int(num)))
        elif name is not None:
            tokens.append(("name", name))
        else:
            tokens.append((sym, None))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ExprError("expected %r, found %r" % (kind, tok[0]))
        return tok

    def parse_partition(self):
        self.expect("[")
        parts = []
        if self.peek() == "int":
            parts.append(self.next()[1])
            while self.peek() == ",":
                self.next()
                parts.append(self.expect("int")[1])
        self.expect("]")
        try:
            return as_partition(parts)
        except ValueError as exc:
            raise ExprError(str(exc))

    def parse_expr(self):
        node = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            rhs = self.parse_term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek() == "*":
            self.next()
            node = ("mul", node, self.parse_factor())
        return node

    def parse_factor(self):
        if self.peek() == "-":
            self.next()
            return ("neg", self.parse_factor())
        return self.parse_atom()

    def parse_atom(self):
        kind = self.peek()
        if kind == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        if kind == "int":
            return ("int", self.next()[1])
        if kind == "name":
            name = self.next()[1]
            if name == "t":
                return ("t",)
            if name == "s":
                return ("s", self.parse_partition())
            if name == "G":
                return ("G", self.parse_partition())
            if name == "g":
                outer = self.parse_partition()
                inner = ()
                if self.peek() == "/":
                    self.next()
                    inner = self.parse_partition()
                return ("g", outer, inner)
            if name in ("h", "e", "p"):
                k = self.expect("int")[1]
                return (name, k)
        raise ExprError("unexpected token %r" % kind)


def parse_expr(text):
    parser = _Parser(tokenize(text))
    try:
        node = parser.parse_expr()
    except RecursionError:
        raise ExprError("expression is nested too deeply")
    parser.expect("end")
    return node


def _parse_shape(text):
    """A partition flag's text [a,b,...], read by the grammar of an atom's shape."""
    parser = _Parser(tokenize(text))
    la = parser.parse_partition()
    parser.expect("end")
    return la


def _parse_t(text):
    """A --t flag's text, read by the tokenizer of expressions: the
    parameter t, or an integer literal, optionally negated."""
    parser = _Parser(tokenize(text))
    if parser.tokens[0] == ("name", "t"):
        parser.next()
        value = T
    else:
        sign = 1
        if parser.peek() == "-":
            parser.next()
            sign = -1
        value = TPoly.const(sign * parser.expect("int")[1])
    parser.expect("end")
    return value


# precedence: additive 1, multiplicative and unary minus 2, atoms 3
def format_expr(node, parent_prec=0):
    kind = node[0]
    if kind == "int":
        return str(node[1])
    if kind == "t":
        return "t"
    if kind == "s":
        return "s" + format_partition(node[1])
    if kind == "G":
        return "G" + format_partition(node[1])
    if kind == "g":
        text = "g" + format_partition(node[1])
        if node[2]:
            text += "/" + format_partition(node[2])
        return text
    if kind in ("h", "e", "p"):
        return "%s%d" % (kind, node[1])
    if kind == "neg":
        text = "-" + format_expr(node[1], 3)
        return "(%s)" % text if parent_prec > 2 else text
    if kind in ("add", "sub"):
        op = "+" if kind == "add" else "-"
        text = format_expr(node[1], 1) + op + format_expr(node[2], 2)
        return "(%s)" % text if parent_prec > 1 else text
    if kind == "mul":
        text = format_expr(node[1], 2) + "*" + format_expr(node[2], 3)
        return "(%s)" % text if parent_prec > 2 else text
    raise ExprError("unknown node %r" % (kind,))


_BINARY = {"add": add, "sub": sub, "mul": mul}


def eval_expr(node, cap=None):
    """Evaluate to a SymFunc, or a TruncSeries when G atoms occur.

    G atoms require an explicit cap; every other value is exact.  The
    values' own + - * combine them, and the engine's ValueError (p0, a
    polynomial above the cap) is raised as an ExprError.  A chain of binary
    operators is folded along its left spine in a loop, so a flat sum of
    many terms does not recurse once per term.
    """
    kind = node[0]
    try:
        if kind in _BINARY:
            spine = []
            while node[0] in _BINARY:
                spine.append(node)
                node = node[1]
            a = eval_expr(node, cap)
            for op, _, right in reversed(spine):
                a = _BINARY[op](a, eval_expr(right, cap))
            return a
        if kind == "int":
            return SymFunc({(): TPoly.const(node[1])})
        if kind == "t":
            return SymFunc({(): T})
        if kind == "s":
            return schur(node[1])
        if kind == "g":
            return g_skew(node[1], node[2])
        if kind == "h":
            return h_gen(node[1])
        if kind == "e":
            return e_gen(node[1])
        if kind == "p":
            return p_gen(node[1])
        if kind == "G":
            if cap is None:  # G_truncated(la, None) raises TypeError
                raise ExprError("expressions with G atoms need an explicit cap")
            return G_truncated(node[1], cap)
        if kind == "neg":
            return -eval_expr(node[1], cap)
    except ExprError:
        raise
    except ValueError as exc:
        raise ExprError(str(exc))
    raise ExprError("unknown node %r" % (kind,))
