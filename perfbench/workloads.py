"""The benchmark's workloads.

A workload builds its inputs from a seeded ``random.Random`` and the
benchmark's own combinatorics (``oracles``), then drives the package only
through the generated inputs.  One op is one call a user would make; the
pass loop in ``child.py`` times each op with ``timed(key, fn)``.  Outputs
are checked after the timed phase by independent invariants, never by
asking the package again.
"""

import contextlib
import io
import json
from functools import cache
from math import comb

import oracles

DONE = object()


@cache
def _partitions(n):
    return oracles.partitions_of(n)


def _random_partition(rng, n):
    pool = _partitions(n)
    return pool[rng.randrange(len(pool))]


def _int_coeff(c):
    """Integer value of a package coefficient; rejects anything with t."""
    if len(c.coeffs) > 1:
        raise ValueError("coefficient involves t")
    return c.coeffs[0] if c.coeffs else 0


class GBasis:
    """Expand every straight g up to one size and every skew g up to another.

    One op is ``g_to_schur`` (or ``g_skew``) followed by ``schur_to_g``.
    Ops run by degree, straight shapes before skew ones, as a user
    tabulating the basis would; the seed shuffles the order within a
    degree.  So every smaller g an op's inversion needs is already cached
    and an op's cost is that of its own shape, whatever the seed.
    """

    name = "gbasis"
    traced_methods = {}
    SIZES = {"full": (11, 8), "tiny": (4, 3)}

    def __init__(self, modules, rng, scale):
        self.groth = modules["groth"]
        straight_max, skew_max = self.SIZES[scale]
        shapes = [(la, ()) for n in range(1, straight_max + 1)
                  for la in _partitions(n)]
        shapes += [(la, mu) for n in range(2, skew_max + 1)
                   for la in _partitions(n)
                   for mu in oracles.subpartitions(la) if mu and mu != la]
        rng.shuffle(shapes)
        shapes.sort(key=lambda s: (sum(s[0]) - sum(s[1]), bool(s[1])))
        self.inputs = shapes

    def run(self, shape, timed):
        timed(shape, lambda: self.op(*shape))

    def op(self, la, mu):
        groth = self.groth
        f = groth.g_skew(la, mu) if mu else groth.g_to_schur(la)
        return f, groth.schur_to_g(f)

    @staticmethod
    def check(shape, out):
        la, mu = shape
        f, expansion = out
        n = sum(la) - sum(mu)
        schur = {nu: _int_coeff(c) for nu, c in f.terms.items()}
        if any(sum(nu) > n for nu in schur):
            return "Schur term above degree %d" % n
        if oracles.schur_two_variable(schur) != oracles.g_two_variable(la, mu):
            return "g%s/%s(x1, x2) is not its two-entry RPP sum" % (la, mu)
        top = {nu: c for nu, c in schur.items() if sum(nu) == n}
        g = {nu: _int_coeff(c) for nu, c in expansion.items()}
        if not mu:
            if top != {la: 1}:
                return "top Schur part of g%s is not s%s" % (la, la)
            # a round trip through the package's own inverse, not an
            # independent check: it catches schur_to_g breaking on its own
            if g != {la: 1}:
                return "g%s does not expand to itself" % (la,)
            return None
        if sum(c * oracles.hook_dim(nu) for nu, c in top.items()) \
                != oracles.skew_syt_count(la, mu):
            return "top Schur part of g%s/%s misses f^(la/mu)" % (la, mu)
        if sum(g.values()) != 1:
            return "g-coefficients of g%s/%s sum to %d" % (la, mu, sum(g.values()))
        return None

    @staticmethod
    def canon(shape, out):
        la, mu = shape

        def terms(f):
            return sorted((sum(nu), tuple(-x for x in nu), _int_coeff(c)) for nu, c in f.items())

        return "%s/%s s %r g %r" % (oracles.part_text(la), oracles.part_text(mu),
                                    terms(out[0].terms), terms(out[1]))

    @staticmethod
    def corrupt(out):
        return out[0], {}


class SchurQueries:
    """A seeded stream of in-process ``dualgroth.cli.main`` requests.

    Only s/h/e/p atoms occur, so no g is ever computed: Schur products of
    total size 16..24, H/E perps of single Schur functions of size 9..14,
    and a few Littlewood-Richardson constants.
    """

    name = "schur-queries"
    traced_methods = {}
    # requests per pass by kind; the second factor of a product is s, h, e or p
    SIZES = {"full": ({"s": 130, "h": 10, "e": 10, "p": 10}, 80, 10,
                      range(16, 25), range(9, 15)),
             "tiny": ({"s": 3, "h": 1, "e": 1, "p": 1}, 4, 2, range(6, 9), range(4, 7))}

    def __init__(self, modules, rng, scale):
        self.cli = modules["cli"]
        products, n_apply, n_lr, expand_sizes, apply_sizes = self.SIZES[scale]
        inputs = []
        i = 0
        for kind, count in products.items():
            for _ in range(count):
                n = expand_sizes[i % len(expand_sizes)]
                i += 1
                # p_k is a sum of k hooks, each an LR product of its own,
                # so a p factor stays small
                a = rng.randint(2, 5) if kind == "p" else rng.randint(-(-n // 3), n // 2)
                second = ("s", _random_partition(rng, a)) if kind == "s" else (kind, a)
                inputs.append(("expand", n, (("s", _random_partition(rng, n - a)), second)))
        for i in range(n_apply):
            la = _random_partition(rng, apply_sizes[i % len(apply_sizes)])
            inputs.append(("apply", ("Hperp", "Eperp")[i % 2], la))
        for i in range(n_lr):
            inputs.append(self._lr_query(rng, i))
        rng.shuffle(inputs)
        self.inputs = inputs

    @staticmethod
    def _lr_query(rng, i):
        mu = _random_partition(rng, rng.randint(4, 8))
        k = rng.randint(2, 6)
        row = i % 2 == 0
        if rng.random() < 0.5:
            base = mu if row else oracles.transpose(mu)
            grown = oracles.horizontal_strip_additions(base, k)
            la = grown[rng.randrange(len(grown))]
            la = la if row else oracles.transpose(la)
        else:
            la = _random_partition(rng, sum(mu) + k)
        nu = (k,) if row else (1,) * k
        return ("lr", la, mu, nu)

    @staticmethod
    def argv(query):
        kind = query[0]
        if kind == "expand":
            text = "*".join(("s" + oracles.part_text(arg)) if a == "s" else "%s%d" % (a, arg)
                            for a, arg in query[2])
            return ["expand", "--to", "s", text]
        if kind == "apply":
            return ["apply", "--op", query[1], "--t", "t", "--to", "s",
                    "s" + oracles.part_text(query[2])]
        _, la, mu, nu = query
        return ["constants", "--family", "lr", "--lambda", oracles.part_text(la),
                "--mu", oracles.part_text(mu), "--nu", oracles.part_text(nu)]

    def run(self, query, timed):
        argv = self.argv(query)
        timed(query, lambda: self.op(argv))

    def op(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    @staticmethod
    def check(query, out):
        code, text = out
        if code != 0:
            return "exit code %r" % (code,)
        lines = text.splitlines()
        if len(lines) != 1:
            return "expected one output line, got %d" % len(lines)
        obj = json.loads(lines[0])
        kind = query[0]
        if kind == "lr":
            _, la, mu, nu = query
            strip = oracles.is_horizontal_strip if len(nu) == 1 else oracles.is_vertical_strip
            want = 1 if strip(la, mu) else 0
            return None if obj["value"] == want else "lr value %r, want %d" % (obj["value"], want)
        terms = {tuple(t["partition"]): oracles.parse_coeff(t["coeff"]) for t in obj["terms"]}
        if kind == "apply":
            _, op, la = query
            removals = (oracles.horizontal_strip_removals if op == "Hperp"
                        else oracles.vertical_strip_removals)(la)
            want = {mu: {sum(la) - sum(mu): 1} for mu in removals}
            return None if terms == want else "%s of s%s misses the Pieri sum" % (op, la)
        n, atoms = query[1], query[2]
        if any(sum(la) != n for la in terms):
            return "product has a term outside degree %d" % n
        if any(set(c) != {0} for c in terms.values()):
            return "product coefficient involves t"
        (_, mu), (kind, arg) = atoms
        if kind != "s":
            if kind == "p":
                want = oracles.border_strip_additions(mu, arg)
            elif kind == "h":
                want = dict.fromkeys(oracles.horizontal_strip_additions(mu, arg), 1)
            else:
                want = {oracles.transpose(la): 1 for la in
                        oracles.horizontal_strip_additions(oracles.transpose(mu), arg)}
            got = {la: c[0] for la, c in terms.items()}
            return None if got == want else "s%s*%s%d misses the %s rule" % (
                mu, kind, arg, "Murnaghan-Nakayama" if kind == "p" else "Pieri")
        # sum c^la f^la = C(n, |mu|) f^mu f^nu, counting standard fillings
        lhs = sum(c[0] * oracles.hook_dim(la) for la, c in terms.items())
        rhs = comb(n, sum(mu)) * oracles.hook_dim(mu) * oracles.hook_dim(arg)
        return None if lhs == rhs else "dimension identity fails: %d != %d" % (lhs, rhs)

    @staticmethod
    def canon(query, out):
        return " ".join(SchurQueries.argv(query)) + " -> %r %s" % (out[0], out[1].strip())

    @staticmethod
    def corrupt(out):
        code, text = out
        obj = json.loads(text)
        if "value" in obj:
            obj["value"] += 1
        else:
            obj["terms"] = obj["terms"][1:]
        return code, json.dumps(obj) + "\n"


class VerifyRegistry:
    """Every registered suite at its default bound, one case per op.

    The seed of each suite is drawn from the workload seed and handed to
    ``suites.iter_cases``; the suites' own random cases follow from it.
    """

    name = "verify-registry"
    traced_methods = {"case": "suites.case"}
    TINY_SUITES = ("symmetry-gate", "sum-rules-c", "i-inverse", "hopf-axioms")

    def __init__(self, modules, rng, scale):
        self.suites = modules["suites"]
        names = sorted(self.suites.SUITES) if scale == "full" else self.TINY_SUITES
        self.bound = None if scale == "full" else 3
        self.inputs = [(name, rng.randrange(2 ** 31)) for name in names]

    def run(self, suite, timed):
        name, seed = suite
        cases = self.suites.iter_cases(name, self.bound, seed)
        while timed(name, lambda: self.case(cases)) is not DONE:
            pass

    @staticmethod
    def case(cases):
        try:
            cid, thunk = next(cases)
        except StopIteration:
            return DONE
        ok, _, _ = thunk()
        return cid, ok

    @staticmethod
    def check(name, out):
        return None if out[1] is True else "case %s failed" % (out[0],)

    @staticmethod
    def canon(name, out):
        return "%s %s" % (name, out[0])

    @staticmethod
    def corrupt(out):
        return out[0], False


WORKLOADS = {w.name: w for w in (GBasis, SchurQueries, VerifyRegistry)}
