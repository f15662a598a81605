"""Benchmark of the dualgroth package: end-to-end metrics per workload,
a traced per-layer run, and a compare mode.

    python3 perfbench/run.py --workload gbasis --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all [--runs 5] [--out results.json]
    python3 perfbench/run.py --compare base.json new.json

A run repeats passes of one workload until ``--seconds`` have gone by.
Each pass is a fresh ``child.py`` process, so every pass starts with cold
``functools.cache`` state, as a command-line run does.  Pass i of a run
draws its inputs from the seed and i, so a run averages over several
input draws and the same seed gives the same inputs.  One client sends
one op at a time (a closed loop).

Time is reported at reference speed.  Machines shared with other tenants
run the same code up to twice as slowly for minutes at a time, and wall
time follows.  So between ops each pass also times a fixed piece of
interpreter work (``child.reference_chunk``), and every op latency and
the set-up time of a pass are scaled by one factor, REF_NOMINAL_S over
the mean of that pass's chunk timings: the figures read as if the
chunk took REF_NOMINAL_S.  A change to the program moves them, a busier
machine much less so.  The human-readable lines print the unscaled values
beside them.

Every op's output is checked (``workloads``, ``oracles``).  At full scale
the sorted canonical outputs are also hashed and compared with
``digests.json``: on every pass for a workload whose canonical outputs
do not depend on the seed, and on the first pass of the recorded seed
for the others.

``ops_per_s`` and ``setup_s`` are medians over the passes of a run; the
op latency percentiles pool the ops of all passes; ``peak_rss_mb`` is the
highest peak RSS of the passes (a cache that crosses a dict resize in one
draw and not in another makes the per-pass value jump by megabytes).  End-to-end metrics come from untraced
passes only.  With ``--trace 1`` the run alternates untraced and traced
passes and reports the per-layer metrics named in ``BENCHMARK.json``,
the tracing overhead and the coverage self-check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("gbasis", "schur-queries", "verify-registry")
DEFAULT_SEED = 1
PASS_TIMEOUT_S = 170
COVERAGE_MARGIN = 0.05
REF_NOMINAL_S = 150e-6
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 80, 75, 50)

UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "setup_s": "s", "peak_rss_mb": "MB", "ops_failed_frac": "ratio"}


class BenchError(RuntimeError):
    """A pass could not run; the benchmark prints no result."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_digests():
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)


def run_pass(workload, seed, index, scale, trace, spans=None, corrupt=None):
    cmd = [sys.executable, "-I", os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--pass-index", str(index),
           "--scale", scale, "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    if corrupt is not None:
        cmd += ["--corrupt", str(corrupt)]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a %s pass timed out" % workload)
    if proc.returncode != 0:
        raise BenchError("a %s pass exited %d:\n%s"
                         % (workload, proc.returncode, err.strip()))
    record = json.loads(out.strip().splitlines()[-1])
    record["setup_s"] = record["first_op_at"] - spawned_at
    return record


def nearest_rank(sorted_values, p):
    k = max(0, min(len(sorted_values) - 1, -(-len(sorted_values) * p // 100) - 1))
    return sorted_values[int(k)]


def tail_percentile(ops_per_pass):
    """Highest listed percentile with at least ten ops of a pass above it."""
    for p in TAIL_PERCENTILES:
        if ops_per_pass * (100 - p) / 100 >= 10:
            return p
    return TAIL_PERCENTILES[-1]


def speed_scale(r):
    """Factor that brings a pass's times to reference speed.

    The mean, not the median: as the load changes within a pass, its chunk
    timings split into groups, and the mean weighs each speed by how long
    the pass ran at it.
    """
    return REF_NOMINAL_S / statistics.fmean(r["ref_times_s"])


def end_to_end(passes):
    """End-to-end metrics of a run from its untraced passes.

    Times are at reference speed (see the module docstring); the unscaled
    values are returned too, under ``raw`` in the info.
    """
    n = min(r["attempted"] for r in passes)
    p = tail_percentile(n)

    def metrics(scales):
        per_pass = [[x * f for x in r["latencies_ms"]] for r, f in zip(passes, scales)]
        lat = sorted(x for ops in per_pass for x in ops)
        tail = nearest_rank(lat, p)
        return {
            "ops_per_s": statistics.median(1000.0 * len(ops) / sum(ops) for ops in per_pass),
            "op_p50_ms": nearest_rank(lat, 50),
            "op_tail_ms": tail,
            "setup_s": statistics.median(f * r["setup_s"] for r, f in zip(passes, scales)),
        }, sum(1 for x in lat if x > tail)

    out, above = metrics([speed_scale(r) for r in passes])
    raw, _ = metrics([1.0] * len(passes))
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    out["peak_rss_mb"] = max(r["rss_mb"] for r in passes)
    out["ops_failed_frac"] = failed / attempted
    info = {"tail_percentile": p, "ops_per_pass": n, "passes": len(passes),
            "samples_above_tail": above, "attempted": attempted, "failed": failed,
            "raw": raw, "ref_us": 1e6 * statistics.median(
                statistics.fmean(r["ref_times_s"]) for r in passes)}
    return out, info


def per_layer(plain, traced):
    """Per-layer metrics: medians over traced passes, times at reference speed."""
    def med(fn, runs=traced):
        return statistics.median(fn(r) for r in runs)

    scale = speed_scale

    def op_seconds(r):
        return scale(r) * sum(r["latencies_ms"]) / 1000.0

    def self_s(*groups):
        return lambda r: scale(r) * sum(r["trace"]["groups"].get(g, [0, 0.0])[1]
                                        for g in groups)

    def calls(group):
        return lambda r: r["trace"]["groups"].get(group, [0])[0]

    def count(name):
        return lambda r: r["trace"]["counts"].get(name, 0)

    def frac(num, den):
        return lambda r: num(r) / den(r) if den(r) else 0.0

    def cache_frac(hits, misses):
        return lambda r: frac(lambda x: x["cache"][hits],
                              lambda x: x["cache"][hits] + x["cache"][misses])(r)

    def coverage(r):
        groups = r["trace"]["groups"]
        wall = groups["op"][2]
        return sum(v[1] for k, v in groups.items() if k != "op") / wall

    return {
        "groth.transfer.self_s": med(self_s("groth.transfer")),
        "groth.transfer.calls": med(calls("groth.transfer")),
        "groth.transfer.monomials": med(count("groth.transfer.monomials")),
        "groth.to_g.self_s": med(self_s("groth.to_g")),
        "groth.G_solve.self_s": med(self_s("groth.G_solve")),
        "groth.g_skew.calls": med(count("groth.g_skew.calls")),
        "groth.g_skew.cache_hit_frac": med(cache_frac("g_skew_hits", "g_skew_misses")),
        "groth.other.self_s": med(self_s("groth.other")),
        "schur.lift.self_s": med(self_s("schur.lift")),
        "schur.lift.monomials": med(count("schur.lift.monomials")),
        "schur.symmetry_check.self_s": med(self_s("schur.symmetry_check")),
        "schur.lr_coeff.self_s": med(self_s("schur.lr_coeff")),
        "schur.lr_coeff.calls": med(calls("schur.lr_coeff")),
        "schur.lr_coeff.nonzero_frac": med(frac(count("schur.lr_coeff.nonzero"),
                                                calls("schur.lr_coeff"))),
        "schur.product.self_s": med(self_s("schur.product")),
        "schur.coproduct.self_s": med(self_s("schur.coproduct")),
        "schur.other.self_s": med(self_s("schur.other")),
        "partitions.self_s": med(self_s("partitions")),
        "partitions.calls": med(calls("partitions")),
        "tpoly.self_s": med(self_s("tpoly")),
        "tpoly.ops": med(count("tpoly.ops")),
        "tpoly.const_operand_frac": med(frac(count("tpoly.const_ops"), count("tpoly.ops"))),
        "operators.perp.self_s": med(self_s("operators.perp")),
        "operators.perp.calls": med(calls("operators.perp")),
        "operators.incidence.self_s": med(self_s("operators.incidence")),
        "operators.other.self_s": med(self_s("operators.other")),
        "exprs.parse.self_s": med(self_s("exprs.parse")),
        "exprs.eval.self_s": med(self_s("exprs.eval")),
        "serialize.self_s": med(self_s("serialize")),
        "cli.self_s": med(self_s("cli")),
        "suites.case.self_s": med(self_s("suites.case")),
        "bench.op.self_s": med(self_s("op")),
        "cache.hit_frac": med(cache_frac("hits", "misses")),
        "cache.entries": med(lambda r: r["cache"]["entries"]),
        "proc.cpu_s": med(lambda r: scale(r) * r["cpu_s"], plain),
        "trace.op_wall_s": med(lambda r: scale(r) * r["trace"]["groups"]["op"][2]),
        "trace.coverage_frac": med(coverage),
        "trace.overhead_frac": med(op_seconds) / med(op_seconds, plain) - 1.0,
        "trace.spans": med(lambda r: r["trace"]["spans"] + r["trace"]["dropped"]),
    }


def module_shares(traced):
    """Each module's share of the traced self time, summed over traced passes."""
    totals = {}
    for r in traced:
        for group, (_, self_s, _) in r["trace"]["groups"].items():
            module = "bench" if group == "op" else group.split(".")[0]
            totals[module] = totals.get(module, 0.0) + self_s
    whole = sum(totals.values()) or 1.0
    return {m: v / whole for m, v in sorted(totals.items(), key=lambda kv: -kv[1])}


def run_workload(workload, seed, seconds, trace, scale="full", corrupt=None):
    """One benchmark run: passes until ``seconds`` have passed, at least one."""
    started = time.monotonic()
    plain, traced = [], []
    while True:
        index = len(plain)
        plain.append(run_pass(workload, seed, index, scale, 0, corrupt=corrupt))
        if trace:
            spans = None
            if not traced:
                os.makedirs(OUT_DIR, exist_ok=True)
                spans = os.path.join(OUT_DIR, "spans-%s.jsonl" % workload)
            traced.append(run_pass(workload, seed, index, scale, 1, spans=spans,
                                   corrupt=corrupt))
        if time.monotonic() - started >= seconds:
            break
    metrics, info = end_to_end(plain)
    digest_ok = None
    digests = load_digests()
    if scale == "full" and workload in digests["seed_free"]:
        digest_ok = all(r["digest"] == digests[workload] for r in plain + traced)
    elif scale == "full" and seed == digests["seed"]:
        digest_ok = all(r["digest"] == digests[workload] for r in plain[:1] + traced[:1])
    failures = [f for r in plain + traced for f in r["failures"]]
    result = {"workload": workload, "seed": seed, "metrics": metrics, "info": info,
              "digest": plain[0]["digest"], "digest_ok": digest_ok,
              "failures": failures[:5]}
    correct = info["failed"] == 0 and digest_ok is not False
    if trace:
        layers = per_layer(plain, traced)
        result["layers"] = layers
        result["shares"] = module_shares(traced)
        result["coverage_ok"] = layers["trace.coverage_frac"] >= 1.0 - COVERAGE_MARGIN
        correct = correct and result["coverage_ok"] and not any(r["failed"] for r in traced)
    result["correct"] = correct
    return result


def fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def print_run(result, spec, trace):
    info = result["info"]
    log = ["workload %s  seed %d  passes %d  ops %d (%d per pass)  reference chunk %.1f us"
           % (result["workload"], result["seed"], info["passes"], info["attempted"],
              info["ops_per_pass"], info["ref_us"])]
    for name in UNITS:
        line = "  %-16s %12s %s" % (name, fmt(result["metrics"][name]), UNITS[name])
        if name in info["raw"]:
            line += "  (unscaled %s)" % fmt(info["raw"][name])
        if name == "op_tail_ms":
            line += "  (p%g of %d ops per pass, %d samples above)" % (
                info["tail_percentile"], info["ops_per_pass"], info["samples_above_tail"])
        if name == "ops_failed_frac":
            line += "  (%d of %d)" % (info["failed"], info["attempted"])
        log.append(line)
    if result["digest_ok"] is not None:
        log.append("  output digest %s: %s" % (
            result["digest"][:16], "matches the record" if result["digest_ok"] else "MISMATCH"))
    for f in result["failures"]:
        log.append("  failed op %s" % f)
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layers = result["layers"]
        for name in units:
            log.append("  %-30s %12s %s" % (name, fmt(layers[name]), units[name]))
        log.append("  self time by module: " + ", ".join(
            "%s %.1f%%" % (m, 100 * v) for m, v in result["shares"].items() if v >= 0.0005))
        log.append("  self-check: layer self time covers %.1f%% of the traced op wall "
                   "time %.3f s (needs >= %.0f%%): %s" % (
                       100 * layers["trace.coverage_frac"], layers["trace.op_wall_s"],
                       100 * (1 - COVERAGE_MARGIN),
                       "ok" if result["coverage_ok"] else "FAILED"))
    print("\n".join(log))


def contract_line(result, spec, trace):
    names = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["layers"] if trace else result["metrics"]
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["info"]["attempted"],
        "failed": result["info"]["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in names},
    })


def quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base, new, spec):
    """Print each end-to-end metric per workload for two result files.

    A metric is regressed when the new median is worse than the base median
    by more than its bound, and unresolved when either side's quartile
    spread is wider than the bound, unless every new run beats every base
    run.  Returns the number of regressions.
    """
    regressions = 0
    print("%-16s %-14s %30s %30s %8s  %s" % ("workload", "metric", "base median [q1, q3]",
                                            "new median [q1, q3]", "change", "verdict"))
    for workload in sorted(set(base["runs"]) & set(new["runs"])):
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            b = [r[name] for r in base["runs"][workload]]
            n = [r[name] for r in new["runs"][workload]]
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / bq[1]
            worse = change if lower else -change
            spread = max((q[2] - q[0]) / q[1] for q in (bq, nq))
            beats = max(n) < min(b) if lower else min(n) > max(b)
            if spread > bound and not beats:
                verdict = "unresolved (spread %.1f%% > bound %.0f%%)" % (100 * spread, 100 * bound)
            elif worse > bound:
                verdict = "REGRESSED (bound %.0f%%)" % (100 * bound)
                regressions += 1
            elif worse < -bound or beats:
                verdict = "improved"
            else:
                verdict = "within bound"
            print("%-16s %-14s %30s %30s %+7.1f%%  %s" % (
                workload, name, "%.4g [%.4g, %.4g]" % (bq[1], bq[0], bq[2]),
                "%.4g [%.4g, %.4g]" % (nq[1], nq[0], nq[2]), 100 * change, verdict))
        failed = [r.get("ops_failed_frac", 0) for r in new["runs"][workload]]
        if any(failed):
            print("%-16s ops_failed_frac is %g in the new runs" % (workload, max(failed)))
            regressions += 1
    return regressions


def run_all(args, spec):
    runs = {w: [] for w in WORKLOADS}
    rows = []
    correct = True
    for workload in WORKLOADS:
        for r in range(args.runs):
            result = run_workload(workload, args.seed + r, args.seconds, args.trace, args.scale)
            print_run(result, spec, args.trace)
            correct = correct and result["correct"]
            runs[workload].append(result["metrics"])
        rows.append((workload, {k: statistics.median(m[k] for m in runs[workload])
                                for k in UNITS}))
    print("\nmedians over %d run(s) of %d s each:" % (args.runs, args.seconds))
    print("%-16s" % "workload" + "".join("%24s" % ("%s [%s]" % (k, u)) for k, u in UNITS.items()))
    for workload, med in rows:
        print("%-16s" % workload + "".join("%24s" % fmt(med[k]) for k in UNITS))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seconds": args.seconds, "seed": args.seed, "runs": runs}, fh, indent=1)
    print(json.dumps({"correct": correct, "runs": sum(len(v) for v in runs.values())}))
    return 0 if correct else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=30,
                   help="how long a run keeps starting passes; 0 runs one pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int, default=1, help="runs per workload with --all")
    p.add_argument("--out", default=None, help="with --all, write every run's metrics here")
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload, for the benchmark's own tests")
    p.add_argument("--corrupt", type=int, default=None,
                   help="damage this op's output in every pass (tests the checks)")
    args = p.parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
                return 1 if compare(json.load(fa), json.load(fb), spec) else 0
        if args.all:
            return run_all(args, spec)
        if not args.workload:
            p.error("give --workload, --all or --compare")
        result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                              args.scale, args.corrupt)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write("benchmark error: %s\n" % exc)
        return 1
    print_run(result, spec, args.trace)
    print(contract_line(result, spec, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
