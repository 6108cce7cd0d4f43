"""The fault-tolerant request path: deadlines, retries, hedging,
circuit breakers, and failure semantics under injected faults."""

import re

import numpy as np
import pytest

import repro.telemetry as tel
from repro.bench.harness import build_rig
from repro.telemetry.dashboard import render_resilience
from repro.workloads import TenantSpec, TrafficEngine
from repro.workloads.resilience import (
    DISABLED,
    BreakerPolicy,
    CircuitBreaker,
    HedgePolicy,
    ResilienceSpec,
    ResilientTrafficEngine,
    RetryPolicy,
    _batch_p99,
    default_spec,
)

pytestmark = pytest.mark.resilience


def _tenants(**kw):
    base = dict(rate_rps=200_000.0, node=0, n_keys=256, max_backlog_ns=5e6)
    base.update(kw)
    return [TenantSpec(name="web", **base),
            TenantSpec(name="batch", **dict(base, rate_rps=100_000.0, get_ratio=0.5))]


class TestDisabledSpec:
    def test_bit_identical_to_base_engine_when_healthy(self):
        rig = build_rig(n_nodes=2)
        base = TrafficEngine(rig.kernel, _tenants(), seed=7)
        r_base = base.run(max_requests=15_000)
        rig2 = build_rig(n_nodes=2)
        dis = ResilientTrafficEngine(rig2.kernel, _tenants(), resilience=DISABLED,
                                     seed=7)
        r_dis = dis.run(max_requests=15_000)
        assert r_base.digest() == r_dis.digest()
        for name in r_base.tenants:
            assert r_base.tenants[name] == r_dis.tenants[name]

    def test_faults_become_counted_losses_not_crashes(self):
        rig = build_rig(n_nodes=2)
        eng = ResilientTrafficEngine(rig.kernel, _tenants(), resilience=DISABLED,
                                     seed=7)
        eng.run(max_requests=2_000)
        rig.machine.crash_node(0)
        rep = eng.run(max_requests=8_000)
        failed = sum(t["failed"] for t in rep.tenants.values())
        assert failed > 0  # open-loop arrivals kept coming and were lost
        assert rep.availability < 1.0

    def test_base_engine_still_raises_on_faults(self):
        from repro.rack.node import NodeCrashedError

        rig = build_rig(n_nodes=2)
        eng = TrafficEngine(rig.kernel, _tenants(), seed=7)
        eng.run(max_requests=2_000)
        rig.machine.crash_node(0)
        with pytest.raises(NodeCrashedError):
            eng.run(max_requests=8_000)


class TestCircuitBreaker:
    def test_closed_to_open_on_error_rate(self):
        br = CircuitBreaker(BreakerPolicy(window=4, min_volume=4,
                                          failure_threshold=0.5), "t", 0)
        for _ in range(2):
            assert br.record(0.0, ok=True) is None
        assert br.record(0.0, ok=False) is None
        moved = br.record(0.0, ok=False)  # 2/4 failures -> threshold
        assert moved is not None and (moved["from"], moved["to"]) == ("closed", "open")
        assert not br.allow(1.0)

    def test_cooldown_then_half_open_probe(self):
        pol = BreakerPolicy(window=4, min_volume=2, failure_threshold=0.5,
                            cooldown_ns=1_000.0)
        br = CircuitBreaker(pol, "t", 0)
        br.record(0.0, ok=False)
        moved = br.record(0.0, ok=False)
        assert (moved["from"], moved["to"]) == ("closed", "open")
        assert not br.allow(500.0)          # cooling down
        assert br.allow(1_500.0)            # one probe admitted
        assert not br.allow(1_500.0)        # second concurrent probe refused
        moved = br.record(1_600.0, ok=True)
        assert (moved["from"], moved["to"]) == ("half-open", "closed")
        assert br.allow(1_700.0)

    def test_failed_probe_reopens(self):
        pol = BreakerPolicy(window=4, min_volume=2, failure_threshold=0.5,
                            cooldown_ns=1_000.0)
        br = CircuitBreaker(pol, "t", 0)
        br.record(0.0, ok=False)
        br.record(0.0, ok=False)
        assert br.allow(1_500.0)
        moved = br.record(1_600.0, ok=False)
        assert (moved["from"], moved["to"]) == ("half-open", "open")
        assert not br.allow(1_700.0)
        assert br.opens == 2

    def test_trip_forces_open(self):
        br = CircuitBreaker(BreakerPolicy(), "t", 0)
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
        assert rep.availability >= 0.99
        assert failed < failovers
        # the crash hook tripped the primary's breakers immediately
        assert any("node-crash" in line for line in eng.breaker_log)

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
        generations = {name: w.generation for name, w in windows.items()}
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
        assert {name: w.generation for name, w in windows.items()} == generations
        # a batch sent to the dead primary is one raising single op; the replica issues none
        assert singles and all(node == 0 for _, node in singles)
        for name, st in eng.tenants.items():
            slab, values = st.backend_state
            assert windows[name].slots.tobytes() == values.tobytes()

    def test_degraded_mode_sheds_when_no_target_routable(self):
        rig = build_rig(n_nodes=2)
        spec = ResilienceSpec(breaker=BreakerPolicy(cooldown_ns=1e15),
                              retry=RetryPolicy())  # no replica
        eng = ResilientTrafficEngine(rig.kernel, _tenants(), resilience=spec,
                                     seed=7)
        eng.run(max_requests=2_000)
        rig.machine.crash_node(0)
        rep = eng.run(max_requests=8_000)
        shed = sum(t["dropped_shed"] for t in rep.tenants.values())
        assert shed > 0  # breaker opened, everything sheds at admission

    def test_retry_tokens_bound_amplification(self):
        rig = build_rig(n_nodes=2)
        spec = ResilienceSpec(retry=RetryPolicy(burst=64, budget_ratio=0.0))
        eng = ResilientTrafficEngine(rig.kernel, _tenants(), resilience=spec,
                                     seed=7)
        eng.run(max_requests=2_000)
        rig.machine.crash_node(0)
        rep = eng.run(max_requests=8_000)
        retries = sum(t["retries"] for t in rep.tenants.values())
        assert retries <= 2 * 64  # per-tenant bucket never refills at ratio 0


class TestDeadlines:
    def test_overruns_counted_and_excluded(self):
        rig = build_rig(n_nodes=2)
        # deadline far below queueing delay under overload
        spec = ResilienceSpec(deadline_ns=500.0)
        tenants = [TenantSpec(name="web", rate_rps=5e6, node=0, n_keys=256,
                              max_backlog_ns=1e9)]
        eng = ResilientTrafficEngine(rig.kernel, tenants, resilience=spec, seed=7)
        rep = eng.run(max_requests=20_000)
        t = rep.tenants["web"]
        assert t["timed_out"] > 0
        assert t["failed"] >= t["timed_out"]
        if t["admitted"]:
            lat = np.concatenate(eng.tenants["web"].latencies)
            assert lat.max() <= 500.0  # survivors all inside the budget


class TestHedging:
    def _spec(self):
        return ResilienceSpec(
            hedge=HedgePolicy(min_delay_ns=2_000.0, max_fraction=0.1),
            replica_node=1,
        )

    def _overloaded(self, seed=11):
        rig = build_rig(n_nodes=2)
        tenants = [TenantSpec(name="web", rate_rps=5e6, node=0, n_keys=256,
                              max_backlog_ns=1e9)]
        eng = ResilientTrafficEngine(rig.kernel, tenants,
                                     resilience=self._spec(), seed=seed)
        rep = eng.run(max_requests=30_000)
        eng.finalize()
        return eng, rep

    def test_tail_requests_hedge_and_win(self):
        eng, rep = self._overloaded()
        t = rep.tenants["web"]
        assert t["hedges"] > 0
        assert t["hedge_wins"] > 0
        assert t["hedge_wins"] <= t["hedges"]
        # hedged fraction respects the cap (per batch, so aggregate holds)
        assert t["hedges"] <= 0.1 * t["admitted"] + 64

    def test_hedging_is_deterministic(self):
        _, a = self._overloaded()
        _, b = self._overloaded()
        assert a.digest() == b.digest()

    def test_hedging_improves_recorded_tail(self):
        eng, rep = self._overloaded()
        rig2 = build_rig(n_nodes=2)
        tenants = [TenantSpec(name="web", rate_rps=5e6, node=0, n_keys=256,
                              max_backlog_ns=1e9)]
        base = ResilientTrafficEngine(rig2.kernel, tenants, resilience=DISABLED,
                                      seed=11)
        rep_base = base.run(max_requests=30_000)
        assert rep.tenants["web"]["latency_sum_ns"] < rep_base.tenants["web"]["latency_sum_ns"]

    @pytest.mark.parametrize("magnitude", [1.0, 1e3, 1e6, 1e9])
    def test_batch_p99_is_numpy_percentile_bit_for_bit(self, magnitude):
        """The hedge EWMA feeds simulated delays, so the cheap p99 must be
        the *same double* ``np.percentile`` returns, for every batch size."""
        rng = np.random.default_rng(int(magnitude))
        for n in range(1, 201):
            batches = [
                rng.random(n) * magnitude,
                np.round(rng.random(n) * 4) * magnitude,  # heavy ties
                np.full(n, magnitude / 3),  # all equal
            ]
            for x in batches:
                kept = x.copy()
                assert _batch_p99(x) == float(np.percentile(x, 99)), (n, magnitude)
                assert np.array_equal(x, kept)  # the recorded latencies stay in place


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
            rep = eng.run(max_requests=8_000)
            eng.finalize()
            return rep

        r_off = run()
        tel.enable()
        tel.reset()
        try:
            r_on = run()
            reg = tel.TELEMETRY.registry
            assert reg.counter_total("traffic/web", "resilience.failovers") > 0
            assert reg.counter_total("traffic/web", "resilience.breaker_opens") > 0
            panel = render_resilience(reg)
            assert "per-tenant resilience" in panel
            assert "web" in panel
        finally:
            tel.reset()
            tel.disable()
        # telemetry must not move simulated time: identical digests
        assert r_off.digest() == r_on.digest()


class TestValidation:
    @pytest.mark.parametrize("field, value", [
        ("deadline_ns", -1.0),              # failed every request, silently
        ("deadline_ns", float("nan")),      # passed every request, silently
        ("failure_detect_ns", -5.0),        # ran the charged clock backwards
        ("failure_detect_ns", float("inf")),
        ("failure_detect_ns", "5"),         # not a number at all
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

    def test_per_tenant_spec_mapping(self):
        rig = build_rig(n_nodes=2)
        eng = ResilientTrafficEngine(
            rig.kernel, _tenants(),
            resilience={"web": default_spec(replica_node=1)}, seed=7,
        )
        eng.run(max_requests=2_000)
        rig.machine.crash_node(0)
        rep = eng.run(max_requests=8_000)
        assert rep.tenants["web"]["failovers"] > 0      # spec applied
        assert rep.tenants["batch"]["failed"] > 0       # DISABLED fallback
