"""Pins over the request path's reference runs (the base engine, which
counts a fault as lost) and the resilient engine's no-replica runs: the
traffic report digest and every breaker transition of each run, taken at
the commit before the policy toggles became module constants.

Each run is built by the helper of the test that owns it, so a change in
*how* a configuration is spelled lands there and this file stays as is.
The hedged runs are pinned by ``test_batch_kernels.PARENT``.
"""

import pytest

from tests.workloads import test_chaos_under_load, test_ledger, test_resilience

pytestmark = pytest.mark.resilience

#: (test_ledger engine, fault) at seed 0 -> (report digest, breaker log)
LEDGER = {
    ("base", "healthy"): (
        "25d2d55602fae86fdd2d3b1077b922007d1d73e796e5a18c7c14d30dd570d2a0", []),
    ("base", "link-flap"): (
        "f9291f54ac87f5d8626f873af55b4be0ed8aa6805d50d03dd17086169efb9dd6", []),
    ("base", "node-crash"): (
        "30f4f02907db7757be6a7310542f045ef157e9833eb355dbc7462e8ae1b15385", []),
    ("no-replica", "healthy"): (
        "25d2d55602fae86fdd2d3b1077b922007d1d73e796e5a18c7c14d30dd570d2a0", []),
    ("no-replica", "link-flap"): (
        "da0895952d4623c5b913c1dda69ee5e1007626ab5893b5618973b0364ad91467", [
            "breaker tenant=batch target=0 closed->open t=600907.9 reason=error-rate",
            "breaker tenant=web target=0 closed->open t=615920.2 reason=error-rate",
        ]),
    ("no-replica", "node-crash"): (
        "2f7a6292447c5a0717adfbd0395e21ef5dddc1283b80d631a7ac3887a43c5433", [
            "breaker tenant=web target=0 closed->open t=4132350.7 reason=node-crash",
            "breaker tenant=batch target=0 closed->open t=4132350.7 reason=node-crash",
        ]),
}


def _breaker_lines(eng):
    """The engine's transitions as journal lines, checked against its records."""
    assert len(eng.breaker_events) == len(eng.breaker_log)
    return eng.breaker_log


@pytest.mark.parametrize("engine, fault", sorted(LEDGER))
def test_ledger_runs_replay(engine, fault):
    eng, report, _ = test_ledger._run(engine, fault, 0)
    assert (report.digest(), _breaker_lines(eng)) == LEDGER[engine, fault]


def test_degraded_mode_run_replays():
    eng, report = test_resilience._degraded_run()
    assert (report.digest(), _breaker_lines(eng)) == (
        "ba54c63bdc9baff479bad8fec1fde18f31441288cc1abac6d47662f59e743437", [
            "breaker tenant=web target=0 closed->open t=6829377.2 reason=node-crash",
            "breaker tenant=batch target=0 closed->open t=6829377.2 reason=node-crash",
        ])


def test_reference_arm_crash_storm_journal_replays():
    rep = test_chaos_under_load._run(None)
    assert rep.breaker_transitions == []
    assert rep.traffic.digest() == (
        "a4f16ada2e4128d40ea1bc0ad40655b2318256824afcfb7655f2a01c8bc0d661")
    assert rep.digest == "bab4a83c0bbbd4fd4b1618156aa4d8d9999fcde93d27f85a0a78311cfaaa7eb2"
