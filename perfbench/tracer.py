"""Per-layer tracing of the package from outside its source.

``install`` replaces the functions of each ``dualgroth`` module (and the
arithmetic methods of its classes) with wrappers, in every module namespace
that binds them, so calls between modules pass through the wrappers too.
A wrapper records a span: its group, start, end and the span that caused
it.  Self time is a span's duration minus the time its child spans cover.

Hot leaf groups (partitions, the ``TPoly`` operators, ``lr_coeff`` and
the like) are aggregated as calls and times only; the rest are also kept
as span records, which ``write_spans`` saves after the pass.
"""

import inspect
import json
import time
from importlib import import_module

perf = time.perf_counter

MODULES = ("partitions", "tpoly", "schur", "groth", "operators", "exprs",
           "serialize", "suites", "cli")

# module -> (default group, {function name: group}); None skips a function
GROUPS = {
    "partitions": ("partitions", {}),
    "tpoly": ("tpoly", {"_coerce": None}),
    "schur": ("schur.other", {
        "lr_coeff": "schur.lr_coeff",
        "_mul_pair": "schur.product", "series_mul": "schur.product",
        "_coproduct_pairs": "schur.coproduct", "coproduct": "schur.coproduct",
        "schur_expand_raw": "schur.lift", "ssyt_poly": "schur.lift",
        "raw_is_symmetric": "schur.symmetry_check"}),
    "groth": ("groth.other", {
        "rpp_generating_poly": "groth.transfer",
        "schur_to_g": "groth.to_g", "_schur_in_g": "groth.to_g",
        "g_expansion_to_symfunc": "groth.to_g",
        "G_truncated": "groth.G_solve"}),
    "operators": ("operators.other", {
        "perp": "operators.perp",
        "_comparable_pairs": "operators.incidence",
        "inc_convolve": "operators.incidence", "inc_delta": "operators.incidence",
        "inc_zeta": "operators.incidence", "inc_mobius": "operators.incidence",
        "inc_it": "operators.incidence", "inc_jt": "operators.incidence",
        "telescoping_X": "operators.incidence"}),
    "exprs": ("exprs.parse", {
        "eval_expr": "exprs.eval", "_promote": "exprs.eval",
        "_embed": "exprs.eval", "has_series_atom": "exprs.eval"}),
    "serialize": ("serialize", {}),
    "suites": ("suites.case", {"iter_cases": None, "run_suite": None}),
    "cli": ("cli", {}),
}

# (module, class) -> [(group, method names)]
METHODS = {
    ("tpoly", "TPoly"): [("tpoly", ("__add__", "__radd__", "__neg__", "__sub__",
                                    "__rsub__", "__mul__", "__rmul__", "__pow__",
                                    "evaluate", "substitute"))],
    ("tpoly", "MultiPoly"): [("tpoly", ("__add__", "__neg__", "__sub__", "mul",
                                        "__mul__", "is_symmetric",
                                        "substitute_first", "shift_vars"))],
    ("schur", "SymFunc"): [("schur.product", ("__mul__", "__rmul__")),
                           ("schur.other", ("__add__", "__neg__", "__sub__", "scale"))],
    ("schur", "TruncSeries"): [("schur.other", ("__add__", "__neg__", "__sub__", "scale"))],
    ("schur", "TensorElem"): [("schur.product", ("__mul__",)),
                              ("schur.other", ("__add__", "__sub__", "scale", "swap"))],
    ("operators", "IncidenceFn"): [("operators.incidence", ("substitute",))],
}

AGGREGATED = {"partitions", "tpoly", "schur.lr_coeff", "schur.other",
              "serialize", "exprs.parse"}

ROOT = "op"
MAX_SPANS = 100_000


class Tracer:
    """Span stack, per-group totals and counters of one traced pass."""

    def __init__(self):
        self.groups = {}          # group -> [calls, self seconds, total seconds]
        self.counts = {}
        self.spans = []           # (op id, span id, parent id, group, start, end)
        self.dropped = 0
        self.op_id = 0
        self._next_id = 0
        self._stack = [[0.0, 0]]  # frames: [child seconds, id of nearest kept span]

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, group, fn, keep=True, observe=None):
        """Return fn wrapped in a span of the given group."""
        totals = self.groups.setdefault(group, [0, 0.0, 0.0])
        stack, spans, tracer = self._stack, self.spans, self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if keep:
                tracer._next_id += 1
                frame[1] = tracer._next_id
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                totals[0] += 1
                totals[1] += dur - frame[0]
                totals[2] += dur
                parent[0] += dur
                if keep:
                    if len(spans) < MAX_SPANS:
                        spans.append((tracer.op_id, frame[1], parent[1], group, t0, t1))
                    else:
                        tracer.dropped += 1
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def summary(self):
        return {"groups": self.groups, "counts": self.counts,
                "spans": len(self.spans), "dropped": self.dropped}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for op_id, sid, parent, group, t0, t1 in self.spans:
                fh.write(json.dumps({"op": op_id, "id": sid, "parent": parent,
                                     "name": group, "start": t0, "end": t1}) + "\n")


def _is_tpoly_const(x):
    return isinstance(x, int) or len(getattr(x, "coeffs", (0, 0))) <= 1


def _observe_tpoly(tracer, args, result):
    tracer.count("tpoly.ops")
    if all(_is_tpoly_const(a) for a in args):
        tracer.count("tpoly.const_ops")


def _observe_transfer(tracer, args, result):
    tracer.count("groth.transfer.monomials", len(result))


def _observe_lift(tracer, args, result):
    tracer.count("schur.lift.monomials", len(args[0]))


def _observe_g_skew(tracer, args, result):
    tracer.count("groth.g_skew.calls")


def _observe_lr(tracer, args, result):
    if result:
        tracer.count("schur.lr_coeff.nonzero")


OBSERVERS = {
    ("groth", "rpp_generating_poly"): _observe_transfer,
    ("groth", "g_skew"): _observe_g_skew,
    ("schur", "schur_expand_raw"): _observe_lift,
    ("schur", "lr_coeff"): _observe_lr,
}


def _module_functions(mod):
    for name, obj in vars(mod).items():
        if inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isgeneratorfunction(getattr(obj, "__wrapped__", obj)):
            continue
        yield name, obj


def cached_functions(package="dualgroth"):
    """Every functools cache in the package, by qualified name."""
    out = {}
    for short in MODULES:
        mod = import_module("%s.%s" % (package, short))
        for name, obj in _module_functions(mod):
            if hasattr(obj, "cache_info"):
                out["%s.%s" % (short, name)] = obj
    return out


def install(tracer, package="dualgroth"):
    """Wrap the package's functions and the arithmetic methods of its classes."""
    modules = {short: import_module("%s.%s" % (package, short)) for short in MODULES}
    replaced = {}
    for short, mod in modules.items():
        default, named = GROUPS[short]
        for name, obj in _module_functions(mod):
            group = named.get(name, default)
            if group is None:
                continue
            replaced[id(obj)] = (obj, tracer.wrap(group, obj, group not in AGGREGATED,
                                                  OBSERVERS.get((short, name))))
    for (short, cls_name), plan in METHODS.items():
        cls = getattr(modules[short], cls_name)
        for group, names in plan:
            for name in names:
                fn = cls.__dict__.get(name)
                if fn is None:
                    continue
                observe = _observe_tpoly if cls_name == "TPoly" else None
                setattr(cls, name, tracer.wrap(group, fn, group not in AGGREGATED, observe))
    for mod in [import_module(package)] + list(modules.values()):
        for name, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
