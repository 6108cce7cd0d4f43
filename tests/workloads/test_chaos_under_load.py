"""Chaos-under-load campaigns: seeded faults interleaved with open-loop
traffic on one event heap, journals byte-identical per seed."""

import pytest

import repro.telemetry as tel
from repro.bench.harness import build_rig
from repro.chaos.schedule import ChaosCampaign, event
from repro.workloads import TenantSpec, TrafficEngine
from repro.workloads.resilience import (
    ChaosUnderLoad,
    ResilientTrafficEngine,
    default_spec,
)

pytestmark = pytest.mark.resilience


def _tenants():
    return [TenantSpec(name="web", rate_rps=200_000.0, node=0, n_keys=256,
                       max_backlog_ns=5e6),
            TenantSpec(name="batch", rate_rps=100_000.0, node=0, n_keys=256,
                       get_ratio=0.5, max_backlog_ns=5e6)]


def _crash_campaign(seed=3):
    # flap the primary's fabric port, then kill the node outright; the
    # replica (node 1) keeps a live path, so survivors exist throughout
    return ChaosCampaign(
        name="crash-storm",
        seed=seed,
        events=(
            event("link_down", at_ns=1e6, node=0),
            event("link_up", at_ns=3e6, node=0),
            event("node_crash", at_ns=4e6, node=0),
            event("node_restart", at_ns=40e6),
        ),
    )


def _run(spec, seed=7, max_requests=40_000, campaign=None, health=False):
    """One crash-storm run; ``spec`` ``None`` runs the base engine."""
    rig = build_rig(n_nodes=2)
    if health:
        rig.kernel.attach_health()
    if spec is None:
        eng = TrafficEngine(rig.kernel, _tenants(), seed=seed)
    else:
        eng = ResilientTrafficEngine(rig.kernel, _tenants(), resilience=spec,
                                     seed=seed)
    cul = ChaosUnderLoad(rig.kernel, eng, campaign or _crash_campaign())
    return cul.run(max_requests=max_requests)


def _availability(rep) -> float:
    """Admitted over admitted + failed + shed: the share of requests that
    entered the request path and got an answer."""
    served = sum(t["admitted"] for t in rep.tenants.values())
    lost = sum(t["failed"] + t["dropped_shed"] for t in rep.tenants.values())
    return served / max(1, served + lost)


class TestByteIdentity:
    def test_same_seed_byte_identical_journal_and_digest(self):
        a = _run(default_spec(replica_node=1))
        b = _run(default_spec(replica_node=1))
        assert a.journal == b.journal
        assert a.digest == b.digest
        assert a.traffic.digest() == b.traffic.digest()

    def test_different_engine_seed_different_journal(self):
        a = _run(default_spec(replica_node=1), seed=7)
        b = _run(default_spec(replica_node=1), seed=8)
        assert a.journal != b.journal

    def test_telemetry_does_not_change_simulated_outcomes(self):
        a = _run(default_spec(replica_node=1))
        tel.enable()
        tel.reset()
        try:
            b = _run(default_spec(replica_node=1))
        finally:
            tel.reset()
            tel.disable()
        # journals differ (telemetry digest line) but the simulation
        # must not: traffic digests are bit-identical
        assert a.traffic.digest() == b.traffic.digest()


class TestCampaignMechanics:
    def test_chaos_lands_mid_run_between_batches(self):
        rep = _run(default_spec(replica_node=1))
        assert any("node_crash" in line for line in rep.fired)
        assert any("link_down" in line for line in rep.fired)
        # faults really happened: the log renders them in the journal
        assert "-- fault log --" in rep.journal
        assert "NODE_CRASH" in rep.journal or "node_crash" in rep.journal

    def test_breaker_transitions_journaled(self):
        rep = _run(default_spec(replica_node=1))
        assert rep.breaker_transitions
        assert "-- breaker transitions --" in rep.journal
        # the link flap filled the error window before the crash hook
        # could trip anything: error-rate opens come first
        assert any("->open" in line and "error-rate" in line
                   for line in rep.breaker_transitions)

    def test_resilience_on_survives_where_off_loses(self):
        on = _run(default_spec(replica_node=1))
        off = _run(None)
        assert _availability(on.traffic) >= 0.99
        assert _availability(off.traffic) < _availability(on.traffic)
        assert sum(t["failed"] + t["dropped_shed"] for t in off.traffic.tenants.values()) > 0

    def test_unfired_events_counted(self):
        camp = ChaosCampaign(name="late", seed=1, events=(
            event("node_crash", at_ns=1e15, node=0),
        ))
        rep = _run(default_spec(replica_node=1), campaign=camp)
        assert "unfired=1" in rep.journal

    def test_requires_at_ns_triggers(self):
        rig = build_rig(n_nodes=2)
        eng = TrafficEngine(rig.kernel, _tenants(), seed=1)
        camp = ChaosCampaign(name="step", seed=1, events=(
            event("node_crash", at_step=3, node=0),
        ))
        with pytest.raises(ValueError):
            ChaosUnderLoad(rig.kernel, eng, camp)

    def test_control_period_that_would_disarm_is_refused(self):
        rig = build_rig(n_nodes=2)
        eng = TrafficEngine(rig.kernel, _tenants(), seed=1)
        # inf armed no health tick, breaker feed or scrub; NaN failed mid-run
        for period in (float("nan"), float("inf"), 0, -1):
            with pytest.raises(ValueError, match=rf"ChaosUnderLoad\.control_period_ns "
                                                 rf"must be .*, got {period!r}"):
                ChaosUnderLoad(rig.kernel, eng, _crash_campaign(), control_period_ns=period)
        assert rig.kernel.events.dispatched == 0

    def test_hostile_run_bound_is_refused_and_cleaned_up(self):
        rig = build_rig(n_nodes=2)
        eng = TrafficEngine(rig.kernel, _tenants(), seed=1)
        cul = ChaosUnderLoad(rig.kernel, eng, _crash_campaign())
        with pytest.raises(ValueError, match=r"run: duration_ns must be a finite number >= 0, got nan"):
            cul.run(duration_ns=float("nan"))  # was: never returned
        assert rig.kernel.patrols == [] and rig.kernel.events.now_ns == 0.0

    def test_works_with_base_engine_too(self):
        """The runner composes with the plain engine (no resilience
        plumbing): a campaign with only link flaps on a non-tenant node
        runs to completion and journals deterministically."""
        camp = ChaosCampaign(name="flap", seed=5, events=(
            event("link_down", at_ns=2e6, node=1),
            event("link_up", at_ns=4e6, node=1),
        ))

        def run():
            rig = build_rig(n_nodes=2)
            eng = TrafficEngine(rig.kernel, _tenants(), seed=7)
            return ChaosUnderLoad(rig.kernel, eng, camp).run(max_requests=20_000)

        a, b = run(), run()
        assert a.journal == b.journal

    def test_health_ticks_ride_the_shared_heap(self):
        rep = _run(default_spec(replica_node=1), health=True)
        rep2 = _run(default_spec(replica_node=1), health=True)
        assert rep.journal == rep2.journal

    def test_patrols_cleaned_up_after_run(self):
        rig = build_rig(n_nodes=2)
        eng = ResilientTrafficEngine(rig.kernel, _tenants(),
                                     resilience=default_spec(replica_node=1),
                                     seed=7)
        cul = ChaosUnderLoad(rig.kernel, eng, _crash_campaign())
        cul.run(max_requests=10_000)
        assert rig.kernel.patrols == []
