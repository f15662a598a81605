"""Tests of the benchmark itself, at the tiny scale so they take seconds."""

import json
import os
import shutil
import subprocess
import sys
from math import factorial

import pytest

import oracles
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = run.load_spec()


def bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           "--scale", "tiny", "--seconds", "0", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_printed_with_unit(workload):
    proc = bench("--workload", workload, "--trace", "0")
    res = result_of(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())
    lines = proc.stdout.splitlines()
    for name, unit in run.UNITS.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines), name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_wrong_output_is_counted_as_failed(workload):
    proc = bench("--workload", workload, "--trace", "0", "--corrupt", "0")
    res = result_of(proc)
    assert res["failed"] == 1 and not res["correct"]
    frac = [line for line in proc.stdout.splitlines() if line.split()[:1] == ["ops_failed_frac"]]
    assert float(frac[0].split()[1]) == pytest.approx(1 / res["attempted"], rel=1e-4)


def traced(workload):
    proc = bench("--workload", workload, "--trace", "1")
    res = result_of(proc)
    assert res["failed"] == 0, proc.stdout
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert "self-check: layer self time covers" in proc.stdout
    layers = {k: v["value"] for k, v in res["metrics"].items()}
    # a tiny pass is a few milliseconds, so the loop's own share is larger
    # than at full size, where the self-check needs 95%
    assert layers["trace.coverage_frac"] > 0.8
    return layers


def test_gbasis_never_reaches_lr():
    layers = traced("gbasis")
    assert layers["schur.lr_coeff.calls"] == 0
    assert layers["groth.transfer.calls"] > 0 and layers["schur.lift.monomials"] > 0


def test_schur_queries_never_reach_groth():
    layers = traced("schur-queries")
    assert layers["groth.transfer.calls"] == 0
    assert all(v == 0 for k, v in layers.items() if k.startswith("groth."))
    assert layers["schur.lr_coeff.calls"] > 0 and layers["cli.self_s"] > 0


def test_verify_registry_runs_suite_cases():
    layers = traced("verify-registry")
    assert layers["suites.case.self_s"] > 0 and layers["tpoly.ops"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "gbasis", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def runs(**metrics):
    keys = list(metrics)
    return [dict(zip(keys, values)) for values in zip(*metrics.values())]


def test_compare_flags_regressions_and_unresolved(capsys):
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    base = {"runs": {"w": runs(ops_per_s=steady, op_p50_ms=steady, op_tail_ms=steady,
                               setup_s=steady, peak_rss_mb=steady)}}
    new = {"runs": {"w": runs(ops_per_s=[60.0, 61.0, 59.0, 60.5, 59.5],
                              op_p50_ms=[50.0, 150.0, 100.0, 60.0, 140.0],
                              op_tail_ms=steady, setup_s=[80.0, 81.0, 79.0, 80.5, 79.5],
                              peak_rss_mb=steady)}}
    assert run.compare(base, new, SPEC) == 1
    rows = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()[1:]}
    assert "REGRESSED" in rows["ops_per_s"]
    assert "unresolved" in rows["op_p50_ms"]
    assert "within bound" in rows["op_tail_ms"]
    assert "improved" in rows["setup_s"]


def test_oracles():
    for n in range(1, 8):
        assert sum(oracles.hook_dim(la) ** 2 for la in oracles.partitions_of(n)) == factorial(n)
    assert oracles.skew_syt_count((3, 2, 1), (1,)) == 16
    assert oracles.skew_syt_count((4, 2), ()) == oracles.hook_dim((4, 2)) == 9
    assert oracles.parse_coeff("t^3-3*t^2+3*t-1") == {3: 1, 2: -3, 1: 3, 0: -1}
    assert oracles.parse_coeff("-2") == {0: -2}
    assert sorted(oracles.horizontal_strip_removals((2, 1))) == [(1,), (1, 1), (2,), (2, 1)]
    assert sorted(oracles.vertical_strip_removals((2, 1))) == [(1,), (1, 1), (2,), (2, 1)]
    assert sorted(oracles.horizontal_strip_additions((1,), 2)) == [(2, 1), (3,)]
    assert oracles.is_vertical_strip((2, 2, 1), (1, 1)) and not oracles.is_horizontal_strip((2, 2), (1,))
    assert oracles.border_strip_additions((2, 1), 2) == {(4, 1): 1, (2, 1, 1, 1): -1}
    assert oracles.border_strip_additions((), 3) == {(3,): 1, (2, 1): -1, (1, 1, 1): 1}
    # g_21 = s_21 + s_2: fillings of (2,1) by 1 and 2 counted per column
    assert oracles.g_two_variable((2, 1), ()) == oracles.schur_two_variable({(2, 1): 1, (2,): 1})
    # g_21/1 = s_2 + s_11: two cells in different columns
    assert oracles.g_two_variable((2, 1), (1,)) == oracles.schur_two_variable(
        {(1, 1): 1, (2,): 1}) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


class Coeff:
    def __init__(self, c):
        self.coeffs = [c]


class Form:
    def __init__(self, terms):
        self.terms = {la: Coeff(c) for la, c in terms.items()}


def test_gbasis_check_sees_lower_schur_terms():
    check = workloads.GBasis.check
    g21 = {(2, 1): Coeff(1)}
    assert check(((2, 1), ()), (Form({(2, 1): 1, (2,): 1}), g21)) is None
    # the top term s_21 alone is right; the missing s_2 must still be seen
    assert "two-entry" in check(((2, 1), ()), (Form({(2, 1): 1}), g21))
    assert "two-entry" in check(((2, 1), ()), (Form({(2, 1): 1, (2,): 1, (1,): 1}), g21))


def test_power_sum_product_checked_by_murnaghan_nakayama():
    check = workloads.SchurQueries.check
    query = ("expand", 5, (("s", (2, 1)), ("p", 2)))

    def out(*terms):
        return 0, json.dumps({"basis": "s", "terms": [
            {"partition": list(la), "coeff": c} for la, c in terms]}) + "\n"

    assert check(query, out(((4, 1), "1"), ((2, 1, 1, 1), "-1"))) is None
    assert "Murnaghan-Nakayama" in check(query, out())
    assert "Murnaghan-Nakayama" in check(query, out(((4, 1), "1"), ((2, 1, 1, 1), "1")))
