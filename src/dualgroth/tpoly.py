"""Exact arithmetic: integer polynomials in the formal parameter t, the
sparse linear-combination core, and multivariate polynomials over t.

TPoly is the scalar ring of the whole package; coefficients are Python
ints, so nothing ever overflows or rounds.  Its arithmetic takes an int
operand as it is, with no conversion to a TPoly, leaves any other operand
to its reflected operator (so T * f = f * T for a combination f), and
builds every result through _mk, which wraps a tuple already in canonical
form (no trailing zero): only a sum can cancel, so only addition strips,
and a product of nonzero polynomials keeps a nonzero leading coefficient.

add_terms and LinComb hold every finite combination with TPoly
coefficients: Schur expansions, truncated series, tensor-square elements
and MultiPoly, the value of a symmetric function in x_1..x_n.  A
combination adds only to its own kind; the subclasses own every rule for
how two kinds meet.  A builder that scales integer tables (LR products,
skew expansions, Schur polynomials, s -> g rows) hands sum_rows its
(coefficient, table) pairs, the cached tables as they are; sum_rows adds
them as ints, one slice per power of t, and builds one TPoly per output
key, with no TPoly product per table entry or per coefficient.
"""

from math import factorial
from types import MappingProxyType


class TPoly:
    """Univariate integer polynomial in t, canonical form (no trailing zeros)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @staticmethod
    def const(n):
        return TPoly((n,))

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def degree(self):
        """Degree, with the zero polynomial taken as degree -1."""
        return len(self.coeffs) - 1

    def as_int(self):
        """The constant value; raises if t actually occurs."""
        if len(self.coeffs) > 1:
            raise ValueError("polynomial %s is not constant" % self)
        return self.coeffs[0] if self.coeffs else 0

    def __add__(self, other):
        a = self.coeffs
        if isinstance(other, TPoly):
            b = other.coeffs
        elif isinstance(other, int):
            b = (other,) if other else ()
        else:
            return NotImplemented
        if len(a) == len(b) == 1:
            s = a[0] + b[0]
            return _mk((s,)) if s else ZERO
        if len(a) < len(b):
            a, b = b, a
        if len(a) > len(b):
            return _mk(tuple(x + y for x, y in zip(a, b)) + a[len(b):])
        # equal lengths: the leading terms may cancel
        out = [x + y for x, y in zip(a, b)]
        while out and not out[-1]:
            out.pop()
        return _mk(tuple(out))

    __radd__ = __add__

    def __neg__(self):
        return _mk(tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a = self.coeffs
        if isinstance(other, TPoly):
            b = other.coeffs
        elif isinstance(other, int):
            b = (other,) if other else ()
        else:
            return NotImplemented
        if not a or not b:
            return ZERO
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            k = b[0]
            return _mk((a[0] * k,) if len(a) == 1 else tuple(x * k for x in a))
        # nonzero leading coefficients multiply to a nonzero one: no strip
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return _mk(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        a = self.coeffs
        if not a:
            return ZERO if n else ONE
        d = len(a) - 1
        if not any(a[:d]):
            # a monomial c*t^d, constants included
            return _mk((0,) * (d * n) + (a[d] ** n,))
        out, base = ONE, self
        while True:
            if n & 1:
                out = out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return isinstance(other, TPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def evaluate(self, v):
        """Exact integer value at t = v (Horner)."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * v + c
        return out

    def text(self):
        """Canonical text, highest power first: ``t^3-3*t^2+3*t-1``."""
        if len(self.coeffs) <= 1:
            return str(self.coeffs[0]) if self.coeffs else "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "t" if k == 1 else "t^%d" % k
                body = var if mag == 1 else "%d*%s" % (mag, var)
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += sign + body
        return text

    def __repr__(self):
        return "TPoly(%s)" % self.text()

    def __str__(self):
        return self.text()


_new = object.__new__


def _mk(coeffs):
    """The TPoly over coeffs, a tuple of ints already in canonical form
    (empty, or ending in a nonzero int); no copy and no strip."""
    p = _new(TPoly)
    p.coeffs = coeffs
    return p


ZERO = TPoly()
ONE = TPoly((1,))
T = TPoly((0, 1))


def _coerce(x):
    if isinstance(x, TPoly):
        return x
    if isinstance(x, int):
        return _mk((x,)) if x else ZERO
    raise TypeError("cannot coerce %r to TPoly" % (x,))


def binomial_general(m, n):
    """binom(m, n) for integer m of any sign; zero when n < 0."""
    if n < 0:
        return 0
    num = 1
    for i in range(n):
        num *= m - i
    return num // factorial(n)


def add_terms(acc, pairs):
    """Add (key, coefficient) pairs into the dict acc and return it.

    Coefficients are ints or TPolys; a key whose coefficient cancels is
    dropped, so acc never holds a zero.
    """
    get = acc.get
    for key, c in pairs:
        s = get(key)
        if s is None:
            if c:
                acc[key] = c
        else:
            s = s + c
            if s:
                acc[key] = s
            else:
                del acc[key]
    return acc


def sum_rows(pairs):
    """The dict sum of c * table over (c, table) pairs, for nonzero TPolys
    c (repeats allowed) and mappings table: key -> int; a key whose terms
    cancel is dropped.

    Each table is added straight into per-key int slices, one per power of
    t: a constant c touches one slice, c = sum a_d t^d one per nonzero a_d.
    Each key's TPoly is then built once from its slices, so no TPoly
    arithmetic runs here.
    """
    slices = []
    for c, table in pairs:
        for d, a in enumerate(c.coeffs):
            if not a:
                continue
            while len(slices) <= d:
                slices.append({})
            s = slices[d]
            get = s.get
            for key, k in table.items():
                s[key] = get(key, 0) + a * k
    if len(slices) == 1:
        return {key: _mk((v,)) for key, v in slices[0].items() if v}
    out = {}
    for key in {key: None for s in slices for key in s}:
        cs = [s.get(key, 0) for s in slices]
        while cs and not cs[-1]:
            cs.pop()
        if cs:
            out[key] = _mk(tuple(cs))
    return out


class LinComb:
    """Finite linear combination: a dict from keys to nonzero TPolys.

    The constructor checks keys and coerces coefficients, adding those
    whose keys check to the same key; a builder whose terms are already
    clean (from add_terms or sum_rows) wraps them with _like instead.
    Subclasses fix the key shape (_key) and any state beside the terms,
    which _like copies.  A cached, shared combination holds its terms in
    a read-only view (frozen), so arithmetic copies terms with .copy(): a
    plain dict(...) would walk the view key by key.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for key, c in (terms or {}).items():
            key, c = self._key(key), _coerce(c)
            if key in clean:
                c = clean.pop(key) + c
            if c:
                clean[key] = c
        self.terms = clean

    _key = staticmethod(tuple)

    def _like(self, terms):
        """A combination of the same kind over terms already clean."""
        out = object.__new__(type(self))
        out.terms = terms
        return out

    def frozen(self):
        """The same combination over a read-only view of its terms, for a
        value that a cache hands to every caller."""
        return self._like(MappingProxyType(self.terms))

    def is_zero(self):
        return not self.terms

    def coeff(self, key):
        return self.terms.get(self._key(key), ZERO)

    def __add__(self, other):
        # another kind of operand: Python tries its reflected operator
        if type(other) is not type(self):
            return NotImplemented
        return self._like(add_terms(self.terms.copy(), other.terms.items()))

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _coerce(c)
        if not c:
            return self._like({})
        return self._like({k: x * c for k, x in self.terms.items()})

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        bits = ["(%s)*%r" % (self.terms[k].text(), k) for k in sorted(self.terms)]
        return "%s(%s)" % (type(self).__name__, " + ".join(bits) or "0")


class MultiPoly(LinComb):
    """Sparse polynomial in x_1..x_n with TPoly coefficients.

    Keys are exponent tuples of length nvars; zero coefficients are never
    stored.
    """

    __slots__ = ("nvars",)

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        LinComb.__init__(self, terms)

    def _key(self, exp):
        if len(exp) != self.nvars:
            raise ValueError("exponent %r has wrong length" % (exp,))
        return tuple(exp)

    def _like(self, terms):
        out = LinComb._like(self, terms)
        out.nvars = self.nvars
        return out

    def __eq__(self, other):
        return LinComb.__eq__(self, other) and self.nvars == other.nvars

    __hash__ = LinComb.__hash__

    def __add__(self, other):
        if type(other) is MultiPoly and self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")
        return LinComb.__add__(self, other)

    def substitute_first(self, value):
        """Set x_1 = value (an integer) and drop that variable."""
        out = add_terms({}, ((exp[1:], c * (value ** exp[0]) if exp[0] else c)
                             for exp, c in self.terms.items()))
        return MultiPoly(self.nvars - 1)._like(out)
