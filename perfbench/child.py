"""One pass of one workload, in a fresh interpreter with cold caches.

Imports the package from ``src/`` of the checkout this file sits in,
builds the workload's inputs, runs every op once in a closed loop (one op
at a time, one thread), then checks the outputs and prints one JSON record
on stdout.  ``run.py`` starts this file; it is not meant to be run by hand.
"""

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass-index", type=int, default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None, help="write the kept spans here")
    p.add_argument("--corrupt", type=int, default=None,
                   help="damage this op's output before the checks (tests the checks)")
    return p.parse_args(argv)


def import_package():
    sys.path[:0] = [HERE, SRC]
    import dualgroth
    if not os.path.abspath(dualgroth.__file__).startswith(SRC + os.sep):
        raise ImportError("dualgroth imported from %s, not from %s"
                          % (dualgroth.__file__, SRC))
    from dualgroth import cli, groth, suites
    return {"cli": cli, "groth": groth, "suites": suites}


REF_EVERY_S = 0.01
REF_MIN_SAMPLES = 20


def reference_chunk():
    """Fixed interpreter work of the kind the kernels do: tuple keys, dict
    updates, integer arithmetic.  Its time tracks the machine's speed."""
    acc = {}
    for i in range(600):
        key = (i % 37, i % 11)
        acc[key] = acc.get(key, 0) + i * 3
    return acc


def reference_time():
    """Time of one reference chunk.  The collector is off meanwhile, so the
    chunk never pays for a collection of the program's heap."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_chunk()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def cache_stats(cached):
    hits = misses = entries = 0
    for fn in cached.values():
        info = fn.cache_info()
        hits, misses, entries = hits + info.hits, misses + info.misses, entries + info.currsize
    g = cached.get("groth.g_skew")
    g = g.cache_info() if g is not None else None
    return {"hits": hits, "misses": misses, "entries": entries,
            "g_skew_hits": g.hits if g else 0, "g_skew_misses": g.misses if g else 0}


def main(argv=None):
    args = parse_args(argv)
    modules = import_package()
    import tracer as tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    rng = random.Random("%s:%d:%d" % (args.workload, args.seed, args.pass_index))
    wl = cls(modules, rng, args.scale)
    cached = tracing.cached_functions()
    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tracing.install(tr)
        for attr, group in cls.traced_methods.items():
            setattr(wl, attr, tr.wrap(group, getattr(wl, attr)))

    records = []
    latencies = []
    ref_times = []
    clock = time.perf_counter
    since_ref = [0.0]

    def timed(key, fn):
        if tr is not None:
            tr.op_id = len(latencies)
            fn = tr.wrap(tracing.ROOT, fn)
        t0 = clock()
        try:
            out, err = fn(), None
        except Exception as exc:  # a failing op is counted, not fatal
            out, err = None, "%s: %s" % (type(exc).__name__, exc)
        t1 = clock()
        if out is workloads.DONE:
            return out
        latencies.append(t1 - t0)
        records.append((key, out, err))
        since_ref[0] += t1 - t0
        if since_ref[0] >= REF_EVERY_S:
            since_ref[0] = 0.0
            ref_times.append(reference_time())
        return out

    first_op_at = time.monotonic()
    for item in wl.inputs:
        wl.run(item, timed)
    while len(ref_times) < REF_MIN_SAMPLES:
        ref_times.append(reference_time())
    usage = resource.getrusage(resource.RUSAGE_SELF)

    if args.corrupt is not None and args.corrupt < len(records):
        key, out, err = records[args.corrupt]
        records[args.corrupt] = (key, cls.corrupt(out), err)
    failures = []
    canon = []
    for key, out, err in records:
        if err is None:
            try:
                err = wl.check(key, out)
            except Exception as exc:  # a check that cannot parse the output fails it
                err = "check raised %s: %s" % (type(exc).__name__, exc)
        if err is not None:
            failures.append("%r: %s" % (key, err))
            continue
        canon.append(cls.canon(key, out))
    # sorted, so the digest does not depend on the order the seed gave the ops
    digest = hashlib.sha256("".join(line + "\n" for line in sorted(canon)).encode())

    record = {
        "first_op_at": first_op_at,
        "latencies_ms": [x * 1000.0 for x in latencies],
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:5],
        "digest": digest.hexdigest(),
        "ref_times_s": ref_times,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cache": cache_stats(cached),
    }
    if tr is not None:
        record["trace"] = tr.summary()
        if args.spans:
            tr.write_spans(args.spans)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
