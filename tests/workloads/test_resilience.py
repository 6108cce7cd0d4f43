"""The fault-tolerant request path: retries, circuit breakers, failover,
and failure semantics under injected faults.  A test that needs a policy
value other than the one every root runs monkeypatches its constant."""

import re

import pytest

import repro.telemetry as tel
from repro.bench.harness import build_rig
from repro.workloads import TenantSpec, TrafficEngine, resilience
from repro.workloads.resilience import (
    CircuitBreaker,
    ResilienceSpec,
    ResilientTrafficEngine,
    default_spec,
    render_transition,
)

pytestmark = pytest.mark.resilience


def _tenants(**kw):
    base = dict(rate_rps=200_000.0, node=0, n_keys=256, max_backlog_ns=5e6)
    base.update(kw)
    return [TenantSpec(name="web", **base),
            TenantSpec(name="batch", **dict(base, rate_rps=100_000.0, get_ratio=0.5))]


def _degraded_run():
    """(engine, report): a breaker that never cools down and no replica, so
    once the primary crashes every batch is shed (test_arm_pins pins it)."""
    rig = build_rig(n_nodes=2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resilience, "BREAKER_COOLDOWN_NS", 1e15)
        eng = ResilientTrafficEngine(rig.kernel, _tenants(), resilience=ResilienceSpec(),
                                     seed=7)
        eng.run(max_requests=2_000)
        rig.machine.crash_node(0)
        return eng, eng.run(max_requests=8_000)


def _availability(rep) -> float:
    """Admitted over admitted + failed + shed: the share of requests that
    entered the request path and got an answer."""
    served = sum(t["admitted"] for t in rep.tenants.values())
    lost = sum(t["failed"] + t["dropped_shed"] for t in rep.tenants.values())
    return served / max(1, served + lost)


class TestDisabledSpec:
    """The base engine: no policy, a fault counted as lost."""

    def test_faults_become_counted_losses_not_crashes(self):
        rig = build_rig(n_nodes=2)
        eng = TrafficEngine(rig.kernel, _tenants(), seed=7)
        eng.run(max_requests=2_000)
        rig.machine.crash_node(0)
        rep = eng.run(max_requests=8_000)
        failed = sum(t["failed"] for t in rep.tenants.values())
        assert failed > 0  # open-loop arrivals kept coming and were lost
        assert _availability(rep) < 1.0


def _breaker_of_four(monkeypatch, min_volume):
    """A breaker over a 4-outcome window with a 1 us cooldown (it opens at
    half failures, the stock threshold)."""
    for name, value in (("BREAKER_WINDOW", 4), ("BREAKER_MIN_VOLUME", min_volume),
                        ("BREAKER_COOLDOWN_NS", 1_000.0)):
        monkeypatch.setattr(resilience, name, value)
    return CircuitBreaker("t", 0)


class TestCircuitBreaker:
    def test_closed_to_open_on_error_rate(self, monkeypatch):
        br = _breaker_of_four(monkeypatch, min_volume=4)
        for _ in range(2):
            assert br.record(0.0, ok=True) is None
        assert br.record(0.0, ok=False) is None
        moved = br.record(0.0, ok=False)  # 2/4 failures -> threshold
        assert moved is not None and (moved["from"], moved["to"]) == ("closed", "open")
        assert not br.allow(1.0)

    def test_cooldown_then_half_open_probe(self, monkeypatch):
        br = _breaker_of_four(monkeypatch, min_volume=2)
        br.record(0.0, ok=False)
        moved = br.record(0.0, ok=False)
        assert (moved["from"], moved["to"]) == ("closed", "open")
        assert not br.allow(500.0)          # cooling down
        assert br.allow(1_500.0)            # one probe admitted
        assert not br.allow(1_500.0)        # second concurrent probe refused
        moved = br.record(1_600.0, ok=True)
        assert (moved["from"], moved["to"]) == ("half-open", "closed")
        assert br.allow(1_700.0)

    def test_failed_probe_reopens(self, monkeypatch):
        br = _breaker_of_four(monkeypatch, min_volume=2)
        br.record(0.0, ok=False)
        br.record(0.0, ok=False)
        assert br.allow(1_500.0)
        moved = br.record(1_600.0, ok=False)
        assert (moved["from"], moved["to"]) == ("half-open", "open")
        assert not br.allow(1_700.0)
        assert br.opens == 2

    def test_trip_forces_open(self):
        br = CircuitBreaker("t", 0)
        moved = br.trip(42.0, "node-crash")
        assert (moved["from"], moved["to"]) == ("closed", "open")
        assert moved["reason"] == "node-crash"
        assert br.trip(43.0, "again") is None  # already open


class TestFailover:
    def test_crash_fails_over_to_replica_and_survives(self):
        rig = build_rig(n_nodes=2)
        eng = ResilientTrafficEngine(
            rig.kernel, _tenants(), resilience=default_spec(replica_node=1),
            seed=7,
        )
        eng.run(max_requests=2_000)
        rig.machine.crash_node(0)
        rep = eng.run(max_requests=10_000)
        failovers = sum(t["failovers"] for t in rep.tenants.values())
        failed = sum(t["failed"] for t in rep.tenants.values())
        assert failovers > 0
        assert _availability(rep) >= 0.99
        assert failed < failovers
        # the crash hook tripped the primary's breakers immediately
        assert any("node-crash" in render_transition(r) for r in eng.breaker_events)

    def test_replica_serves_batches_through_the_tenants_own_window(self, monkeypatch):
        """The slab is global memory, so the replica's attempts name slots of
        the same held window the primary used: no single op, no second
        resolution, and the slab still reads back as the stored values."""
        from repro.rack.machine import RackMachine, SlotRef

        rig = build_rig(n_nodes=2)
        eng = ResilientTrafficEngine(
            rig.kernel, _tenants(), resilience=default_spec(replica_node=1), seed=7,
        )
        windows = dict(eng.backend.windows)
        seen = []  # (entry point, issuing node, the window named) per bulk call
        singles = []
        for name in ("load_many", "store_many", "load", "store"):
            real = getattr(RackMachine, name)

            def spy(self, node_id, addrs, *a, _real=real, _name=name, **kw):
                if _name.endswith("_many"):
                    assert type(addrs) is SlotRef
                    seen.append((_name, node_id, addrs.window))
                else:
                    singles.append((_name, node_id))
                return _real(self, node_id, addrs, *a, **kw)

            monkeypatch.setattr(RackMachine, name, spy)
        eng.run(max_requests=2_000)
        rig.machine.crash_node(0)
        rep = eng.run(max_requests=10_000)
        assert sum(t["failovers"] for t in rep.tenants.values()) > 0
        on_replica = [(name, window) for name, node, window in seen if node == 1]
        assert {name for name, _ in on_replica} == {"load_many", "store_many"}
        assert {id(w) for _, w in on_replica} == {id(w) for w in windows.values()}
        assert eng.backend.windows == windows  # held, not rebuilt per attempt
        # a batch sent to the dead primary is one raising single op; the replica issues none
        assert singles and all(node == 0 for _, node in singles)
        for name, st in eng.tenants.items():
            slab, values = st.backend_state
            assert windows[name].slots.tobytes() == values.tobytes()

    def test_run_returns_with_nothing_in_flight(self):
        """Every attempt runs inside its batch's wake, so a report is final
        when ``run`` returns: the heap holds each tenant's next wake and no
        other live event, before and after a crash sends batches to the replica."""
        rig = build_rig(n_nodes=2)
        tenants = [TenantSpec(name="web", rate_rps=5e6, node=0, n_keys=256,
                              max_backlog_ns=1e9), *_tenants()[1:]]
        eng = ResilientTrafficEngine(rig.kernel, tenants,
                                     resilience=ResilienceSpec(replica_node=1), seed=11)

        def pending():
            tenant_of = {wake: name for name, wake in eng._wakes.items()}
            live = [ev for _, _, ev in rig.kernel.events._heap if not ev.cancelled]
            assert all(ev.fn in tenant_of for ev in live)
            return sorted(tenant_of[ev.fn] for ev in live)

        eng.run(max_requests=10_000)
        assert pending() == ["batch", "web"]
        rig.machine.crash_node(0)
        rep = eng.run(max_requests=20_000)
        assert sum(t["failovers"] for t in rep.tenants.values()) > 0
        assert pending() == ["batch", "web"]

    def test_degraded_mode_sheds_when_no_target_routable(self):
        _, rep = _degraded_run()
        shed = sum(t["dropped_shed"] for t in rep.tenants.values())
        assert shed > 0  # breaker opened, everything sheds at admission

    def test_retry_tokens_bound_amplification(self, monkeypatch):
        monkeypatch.setattr(resilience, "RETRY_BURST", 64)
        monkeypatch.setattr(resilience, "RETRY_BUDGET_RATIO", 0.0)
        # a breaker that never opens (the window never holds the minimum
        # volume, and no crash hook trips it): every batch keeps retrying on
        # the dead primary, so only the token bucket bounds the retries
        monkeypatch.setattr(resilience, "BREAKER_MIN_VOLUME", resilience.BREAKER_WINDOW + 1)
        rig = build_rig(n_nodes=2)
        eng = ResilientTrafficEngine(rig.kernel, _tenants(), resilience=ResilienceSpec(),
                                     crash_detection=False, seed=7)
        eng.run(max_requests=2_000)
        rig.machine.crash_node(0)
        rep = eng.run(max_requests=8_000)
        assert eng.breaker_events == []
        retries = sum(t["retries"] for t in rep.tenants.values())
        assert 0 < retries <= 2 * 64  # per-tenant bucket never refills at ratio 0


class TestTelemetry:
    def test_resilience_counters_and_zero_sim_ns_impact(self):
        def run():
            rig = build_rig(n_nodes=2)
            eng = ResilientTrafficEngine(
                rig.kernel, _tenants(), resilience=default_spec(replica_node=1),
                seed=7,
            )
            eng.run(max_requests=2_000)
            rig.machine.crash_node(0)
            return eng.run(max_requests=8_000)

        r_off = run()
        tel.enable()
        tel.reset()
        try:
            r_on = run()
            reg = tel.TELEMETRY.registry
            assert r_on.tenants["web"]["failovers"] > 0
            for name, t in r_on.tenants.items():
                sub = tel.tenant_subsystem(name)
                assert reg.counter_total(sub, tel.ADMITTED_SERIES) == t["admitted"]
                assert reg.counter_total(sub, tel.LOST_SERIES) == t["failed"] + t["dropped_shed"]
        finally:
            tel.reset()
            tel.disable()
        # telemetry must not move simulated time: identical digests
        assert r_off.digest() == r_on.digest()


class TestValidation:
    @pytest.mark.parametrize("field, value", [
        ("replica_node", -1),
        ("replica_node", 1.5),
    ])
    def test_hostile_spec_is_refused_naming_class_and_field(self, field, value):
        with pytest.raises(ValueError, match=rf"ResilienceSpec\.{field} must be .*, got {re.escape(repr(value))}"):
            ResilienceSpec(**{field: value})

    def test_replica_must_exist(self):
        rig = build_rig(n_nodes=2)
        with pytest.raises(ValueError, match="tenant 'web': replica node 9 not in rack"):
            ResilientTrafficEngine(
                rig.kernel, _tenants(),
                resilience=ResilienceSpec(replica_node=9), seed=1,
            )

    def test_replica_must_differ_from_primary(self):
        rig = build_rig(n_nodes=2)
        with pytest.raises(ValueError):
            ResilientTrafficEngine(
                rig.kernel, _tenants(),
                resilience=ResilienceSpec(replica_node=0), seed=1,
            )
