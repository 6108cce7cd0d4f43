"""Tests for simulated clocks and the fault injector."""

import functools
import itertools
import math
import operator
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rack import (
    FaultKind,
    FaultModel,
    MemoryKind,
    PhysicalMemory,
    RackConfig,
    RackMachine,
    SimClock,
    UncorrectableMemoryError,
    rendezvous,
)
from repro.rack.clock import fold_adds
from repro.rack.faults import FaultInjector
from repro.rack.memory import Region


class TestSimClock:
    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(5)
        clock.advance(2.5)
        assert clock.now_ns == pytest.approx(7.5)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_sync_to_never_goes_backwards(self):
        clock = SimClock(100)
        clock.sync_to(50)
        assert clock.now_ns == 100
        clock.sync_to(150)
        assert clock.now_ns == 150

    def test_rendezvous_aligns_all_clocks(self):
        a, b, c = SimClock(10), SimClock(99), SimClock(5)
        latest = rendezvous(a, b, c)
        assert latest == 99
        assert a.now_ns == b.now_ns == c.now_ns == 99

    def test_rendezvous_needs_a_clock(self):
        with pytest.raises(ValueError):
            rendezvous()


@settings(max_examples=2_000, deadline=None)
@given(st.floats(0.0, 1e18), st.floats(0.0, 1e9) | st.integers(0, 9), st.integers(0, 300))
@example(0.0, 5e-324, 300)                        # clock 0, subnormal steps
@example(0.0, 2.0 ** -1060 / 3, 200)
@example(2439678.6666666665, 64 / 24, 379)       # non-dyadic line costs
@example(0.0, 64 / 24, 300)
@example(1.0, 1, 64)                              # 0.5, 1.5 and 2.5 ulp: ties
@example(1.0 + 2.0 ** -52, 3, 64)
@example(1.0 + 2.0 ** -52, 5, 64)
@example(2.0 ** 53 - 2.0, 1, 10)
@example(1.0, 0.3, 300)                           # across several binades
@example(2.0 ** 40 + 0.1, 2.0 ** 38 / 3, 40)
@example(-1.0, 0.1, 30)                           # a negative clock: folded add by add
def test_closed_form_fold_is_the_left_fold_of_single_adds(clock, ns, n):
    """``fold_adds`` (the machine's batch charge) is, bit for bit, ``n``
    float adds of ``ns`` to ``clock`` made one at a time, left to right.
    An int ``ns`` is that many half ulps of the clock: the odd ones tie."""
    if isinstance(ns, int):
        ns = ns * math.ulp(clock) / 2
    single = functools.reduce(operator.add, itertools.repeat(ns, n), clock)
    assert struct.pack("<d", fold_adds(clock, ns, n)) == struct.pack("<d", single)


class TestFaultInjector:
    def _region(self, size=4096, is_global=True):
        dev = PhysicalMemory(size, MemoryKind.GLOBAL if is_global else MemoryKind.LOCAL_DRAM)
        return Region(base=0, size=size, device=dev, owner=None if is_global else 0)

    def test_zero_rates_never_fault(self):
        inj = FaultInjector(FaultModel(), seed=1)
        region = self._region()
        for _ in range(1000):
            inj.on_access(region, 0, 64, node_id=0, now_ns=0.0)
        assert len(inj.log) == 0

    def test_ce_rate_generates_events_not_poison(self):
        inj = FaultInjector(FaultModel(global_ce_rate=0.5), seed=2)
        region = self._region()
        for _ in range(200):
            inj.on_access(region, 0, 64, node_id=0, now_ns=1.0)
        events = inj.log.events(FaultKind.CORRECTABLE)
        assert 40 < len(events) < 160
        assert not region.device.poisoned

    def test_ue_poisons_device(self):
        inj = FaultInjector(FaultModel(global_ue_rate=1.0), seed=3)
        region = self._region()
        inj.on_access(region, 0, 64, node_id=1, now_ns=0.0)
        assert region.device.poisoned
        assert inj.log.events(FaultKind.UNCORRECTABLE)

    def test_per_hop_multiplier_raises_rates(self):
        base = FaultModel(global_ce_rate=0.01, per_hop_multiplier=2.0)
        far = FaultInjector(base, seed=4)
        near = FaultInjector(base, seed=4)
        region = self._region()
        for _ in range(3000):
            far.on_access(region, 0, 8, node_id=0, now_ns=0.0, path_cost=4)
            near.on_access(region, 0, 8, node_id=0, now_ns=0.0, path_cost=0)
        assert len(far.log) > len(near.log)

    def test_disabled_injector_is_silent(self):
        inj = FaultInjector(FaultModel(global_ue_rate=1.0), seed=5)
        inj.enabled = False
        region = self._region()
        inj.on_access(region, 0, 8, node_id=0, now_ns=0.0)
        assert len(inj.log) == 0

    def test_listener_notified(self):
        inj = FaultInjector(FaultModel(), seed=6)
        seen = []
        inj.log.subscribe(seen.append)
        inj.inject_ce(rack_addr=0x100, node_id=0)
        assert len(seen) == 1 and seen[0].kind is FaultKind.CORRECTABLE

    def test_events_filter_by_time(self):
        inj = FaultInjector(FaultModel(), seed=7)
        inj.inject_ce(0x0, now_ns=10.0)
        inj.inject_ce(0x0, now_ns=20.0)
        assert len(inj.log.events(since_ns=15.0)) == 1


class TestEndToEndFaultRates:
    def test_machine_with_ue_rate_eventually_raises(self):
        cfg = RackConfig(n_nodes=2, faults=FaultModel(global_ue_rate=0.05), seed=11)
        machine = RackMachine(cfg)
        g = machine.global_base
        with pytest.raises(UncorrectableMemoryError):
            for i in range(500):
                machine.load(0, g + (i * 64) % 4096, 8, bypass_cache=True)

    def test_determinism_across_runs(self):
        def run():
            cfg = RackConfig(n_nodes=2, faults=FaultModel(global_ce_rate=0.1), seed=42)
            machine = RackMachine(cfg)
            for i in range(100):
                machine.load(0, machine.global_base + i * 64, 8, bypass_cache=True)
            return [e.addr for e in machine.faults.log.events()]

        assert run() == run()
