"""Pins (``tests/pins.json``) over the request path's reference runs (the base engine, which
counts a fault as lost) and the resilient engine's no-replica runs: the
traffic report digest and every breaker transition of each run, taken at
the commit before the policy toggles became module constants.

Each run is built by the helper of the test that owns it, so a change in
*how* a configuration is spelled lands there and this file stays as is.
"""

import pytest

from repro.workloads.resilience import render_transition
from tests.workloads import test_chaos_under_load, test_ledger, test_resilience

pytestmark = pytest.mark.resilience

#: (test_ledger engine, fault) at seed 0, each pinned as (report digest, breaker log)
RUNS = [(engine, fault) for engine in ("base", "no-replica")
        for fault in ("healthy", "link-flap", "node-crash")]


def _breaker_lines(eng):
    """The engine's transitions as journal lines."""
    return [render_transition(r) for r in eng.breaker_events]


@pytest.mark.parametrize("engine, fault", RUNS)
def test_ledger_runs_replay(engine, fault, pin):
    eng, report, _ = test_ledger._run(engine, fault, 0)
    pin([report.digest(), _breaker_lines(eng)])


def test_degraded_mode_run_replays(pin):
    eng, report = test_resilience._degraded_run()
    pin([report.digest(), _breaker_lines(eng)])


def test_reference_arm_crash_storm_journal_replays(pin):
    rep = test_chaos_under_load._run(None)
    assert rep.breaker_transitions == []
    pin({"traffic": rep.traffic.digest(), "journal": rep.digest})
