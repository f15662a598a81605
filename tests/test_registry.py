"""Every registered suite runs green at its documented default bound."""

import pytest

from dualgroth import suites
from dualgroth.partitions import interval
from dualgroth.suites import SUITES, iter_cases, run_suite


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_default_run_is_green(name):
    results = run_suite(name)
    assert results, "suite %s yielded no cases" % name
    bad = [(cid, lhs, rhs) for cid, ok, lhs, rhs in results if not ok]
    assert not bad, bad[:3]


@pytest.mark.parametrize("name, case", [("i-skew", "[3,2,1]/[1]"),
                                        ("example-321-1", "interval-union-sum")])
def test_interval_sums_read_both_sides(monkeypatch, name, case):
    # a suite that compares one side of I(g_{la/mu}) = sum g_{nu/mu}
    # = sum g_{la/nu} with itself stays green, so record which skew g
    # the case reads
    reads = set()
    g_skew = suites.g_skew

    def recorder(la, mu):
        reads.add((tuple(la), tuple(mu)))
        return g_skew(la, mu)

    monkeypatch.setattr(suites, "g_skew", recorder)
    thunk = dict(iter_cases(name))[case]
    assert thunk()[0]
    la, mu = (3, 2, 1), (1,)
    for nu in interval(mu, la):
        assert (nu, mu) in reads and (la, nu) in reads, nu
