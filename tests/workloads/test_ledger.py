"""The outcome ledger: every sink that reports a per-tenant outcome —
report, registry series, VNI drop count, flight-recorder sample — agrees
with every other, for every engine, on healthy and faulty racks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.telemetry as tel
from repro.bench.harness import build_rig
from repro.chaos.schedule import ChaosCampaign, event
from repro.workloads import TenantSpec, TrafficEngine, resilience
from repro.workloads.resilience import (
    ChaosUnderLoad,
    CircuitBreaker,
    ResilienceSpec,
    ResilientTrafficEngine,
    default_spec,
    render_transition,
)
from repro.telemetry import ADMITTED_SERIES, LOST_SERIES, TENANT_PREFIX
from repro.workloads.traffic import (
    ADMITTED,
    ARRIVAL,
    BACKLOG,
    FAILED,
    LEDGER,
    LINK,
    REQUEST_PATH,
    SHED,
    TIMED_OUT,
)

pytestmark = pytest.mark.resilience

#: engine -> (resilience=, the policy constants its run patches); "base" is
#: the plain TrafficEngine
ENGINES = {
    "base": None,
    "default": (default_spec(replica_node=1), {}),
    # nowhere to fail over to: once the breaker opens, batches are shed
    "no-replica": (ResilienceSpec(), {"BREAKER_COOLDOWN_NS": 1e15}),
}
# a run is ~3 simulated ms, so these land mid-run
FAULTS = {
    "healthy": (),
    "node-crash": (event("node_crash", at_ns=1.5e6, node=0),),
    "link-flap": (event("link_down", at_ns=0.5e6, node=0),
                  event("link_up", at_ns=1.5e6, node=0)),
}


def _tenants():
    # "batch" offers more than its server clears, so the backlog bound sheds
    return [TenantSpec(name="web", rate_rps=200_000.0, node=0, n_keys=256,
                       max_backlog_ns=5e6),
            TenantSpec(name="batch", rate_rps=4_000_000.0, node=0, n_keys=256,
                       get_ratio=0.5, max_backlog_ns=300_000.0)]


def _run(engine, fault, seed):
    """(engine, report, recorder)"""
    rig = build_rig(n_nodes=2)
    rig.kernel.attach_health()
    arm = ENGINES[engine]
    with pytest.MonkeyPatch.context() as mp:
        if arm is None:
            eng = TrafficEngine(rig.kernel, _tenants(), seed=seed)
        else:
            spec, constants = arm
            for name, value in constants.items():
                mp.setattr(resilience, name, value)
            eng = ResilientTrafficEngine(rig.kernel, _tenants(), resilience=spec, seed=seed)
        campaign = ChaosCampaign(name=fault, seed=seed, events=FAULTS[fault])
        report = ChaosUnderLoad(rig.kernel, eng, campaign).run(max_requests=12_000).traffic
    return eng, report, rig.kernel.health.recorder


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("engine", sorted(ENGINES))
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_every_sink_agrees_with_the_report(engine, fault, seed):
    tel.enable()
    tel.reset()
    try:
        eng, report, recorder = _run(engine, fault, seed)
        series = dict(tel.TELEMETRY.registry.counters)
    finally:
        tel.reset()
        tel.disable()
    tenants = report.tenants
    for name, t in tenants.items():
        # (i) conservation: an offered request ends in exactly one place
        ended = t["admitted"] + t["dropped"] + t["failed"] + t["dropped_shed"]
        assert t["offered"] == ended
        assert t["dropped"] == t["dropped_backlog"] + t["dropped_link"]
        assert t["timed_out"] == 0  # a kept column no request-path step counts

        # (ii) the availability pair reads what the report reads (absent
        # and 0 are the same), and only the rows that feed it name a series
        node, sub = eng.tenants[name].spec.node, tel.tenant_subsystem(name)
        assert series.get((node, sub, ADMITTED_SERIES), 0) == t["admitted"]
        assert series.get((node, sub, LOST_SERIES), 0) == t["failed"] + t["dropped_shed"]
        for row in LEDGER:
            lost = row in (FAILED, TIMED_OUT, SHED)
            assert row.series == (ADMITTED_SERIES if row is ADMITTED else LOST_SERIES if lost else None)

        # (iii) the fabric's drop count: every refusal and loss, once
        assert eng.vnis.stats[t["vni"]].dropped == (
            t["dropped_backlog"] + t["dropped_link"] + t["failed"] + t["dropped_shed"]
        )
        assert [o for o in LEDGER if o.drop] == [BACKLOG, LINK, FAILED, TIMED_OUT, SHED]

        # (iv) the last flight-recorder sample is the report
        last = [s for s in recorder.resilience_samples if s["tenant"] == name][-1]
        assert {k: v for k, v in last.items() if k not in ("t_ns", "tenant")} == {
            o.name: t[o.counter] for o in ARRIVAL + REQUEST_PATH
        }
        assert list(last) == ["t_ns", "tenant", "offered", "admitted", "failed",
                              "timed_out", "retries", "hedges", "hedge_wins",
                              "failovers", "shed"]
    # ... and no other tenant counter exists
    assert {m for (_n, s, m) in series if s.startswith(TENANT_PREFIX)} <= {ADMITTED_SERIES, LOST_SERIES}
    # (v) the engine's running total — what run(max_requests=) stops on —
    # has one writer beside the OFFERED count, so it is the tenants' sum
    assert eng.total_offered == sum(t["offered"] for t in tenants.values())
    assert eng.total_offered >= 12_000  # the run stopped on it
    # every breaker transition reached the recorder, as is
    assert list(recorder.breaker_events) == eng.breaker_events
    assert sum(t["dropped_backlog"] for t in tenants.values()) > 0


def test_transition_record_renders_to_the_journal_line(monkeypatch):
    for name, value in (("BREAKER_WINDOW", 4), ("BREAKER_MIN_VOLUME", 2),
                        ("BREAKER_COOLDOWN_NS", 1_000.0)):
        monkeypatch.setattr(resilience, name, value)
    br = CircuitBreaker("web", 0)
    br.record(0.0, ok=False)
    opened = br.record(310_000.04, ok=False)
    assert opened == {"tenant": "web", "target": 0, "from": "closed", "to": "open",
                      "t_ns": 310_000.0, "reason": "error-rate"}
    assert render_transition(opened) == (
        "breaker tenant=web target=0 closed->open t=310000.0 reason=error-rate"
    )
    assert br.allow(312_000.0)
    assert render_transition(br.record(312_500.25, ok=True)) == (
        "breaker tenant=web target=0 half-open->closed t=312500.2 reason=probe-ok"
    )
    assert render_transition(br.trip(400_000.0, "slo:availability")) == (
        "breaker tenant=web target=0 closed->open t=400000.0 reason=slo:availability"
    )
