"""Regression tests for the fault injector and the indexed fault log."""

import dataclasses
import hashlib

import pytest

from repro.rack import NodeCrashedError, RackConfig, RackMachine, UncorrectableMemoryError
from repro.rack.faults import FaultEvent, FaultInjector, FaultKind, FaultLog
from repro.rack.memory import MemoryKind, OutOfRangeError, PhysicalMemory, Region
from repro.rack.params import FaultModel


def _injector(line_ratio: float) -> FaultInjector:
    return FaultInjector(FaultModel(line_corruption_ratio=line_ratio), seed=1)


class TestLineSpreadClamp:
    """inject_ue's line spread must stay inside the device, whatever its size."""

    def test_device_smaller_than_a_cache_line(self):
        # a 32B device cannot hold a 64B line spread: pre-fix the clamp
        # computed offset = device.size - 64 = -32 and poison() raised
        device = PhysicalMemory(32, MemoryKind.LOCAL_DRAM, "tiny")
        inj = _injector(line_ratio=1.0)  # always take the line-spread path
        inj.inject_ue(device, 5)
        assert device.poisoned == set(range(32))

    def test_one_byte_device(self):
        device = PhysicalMemory(1, MemoryKind.LOCAL_DRAM, "bit")
        inj = _injector(line_ratio=1.0)
        inj.inject_ue(device, 0)
        assert device.poisoned == {0}

    def test_offset_near_device_end_is_pulled_back(self):
        device = PhysicalMemory(128, MemoryKind.LOCAL_DRAM, "small")
        inj = _injector(line_ratio=1.0)
        inj.inject_ue(device, 127)  # line-aligns to 64, spread fits
        assert max(device.poisoned) < 128
        assert min(device.poisoned) >= 0
        assert len(device.poisoned) == 64

    def test_single_byte_path_unaffected(self):
        device = PhysicalMemory(32, MemoryKind.LOCAL_DRAM, "tiny")
        inj = _injector(line_ratio=0.0)  # never spread
        inj.inject_ue(device, 7)
        assert device.poisoned == {7}


class TestArmedFlags:
    """``armed`` is derived state: it follows ``enabled`` flips by itself and
    in-place model edits through ``model_changed()`` (the documented rule)."""

    def test_zero_rates_are_never_armed(self):
        inj = FaultInjector(FaultModel())
        assert inj.armed == (False, False) and inj.is_noop(True) and inj.is_noop(False)

    def test_each_region_kind_arms_on_its_own_rates(self):
        assert FaultInjector(FaultModel(global_ce_rate=0.1)).armed == (False, True)
        assert FaultInjector(FaultModel(local_ue_rate=0.1)).armed == (True, False)

    def test_disabling_disarms_and_enabling_rearms(self):
        inj = FaultInjector(FaultModel(global_ue_rate=0.5, local_ce_rate=0.5))
        inj.enabled = False
        assert inj.armed == (False, False) and inj.is_noop(True)
        inj.enabled = True
        assert inj.armed == (True, True) and not inj.is_noop(False)

    def test_in_place_edit_takes_effect_at_model_changed(self):
        inj = FaultInjector(FaultModel())
        inj.model.global_ue_rate = 1.0
        inj.model_changed()
        assert inj.armed == (False, True)

    def test_machine_gate_follows_a_mid_run_disable(self):
        m = RackMachine(RackConfig(n_nodes=2, seed=3, faults=FaultModel(global_ce_rate=1.0)))
        g = m.global_base
        m.atomic_load(0, g)
        assert len(m.faults.log) == 1
        m.faults.enabled = False
        m.atomic_load(0, g)
        m.load(0, g + 4096, 640)
        assert len(m.faults.log) == 1
        m.faults.enabled = True
        m.load(0, g + 8192, 640)  # ten lines, each rolls on its own again
        assert len(m.faults.log) == 11


def _ev(kind, t, addr=None):
    return FaultEvent(kind=kind, time_ns=t, addr=addr)


class TestFaultLogIndex:
    def test_events_filters_by_kind_and_time(self):
        log = FaultLog()
        for t in range(10):
            log.record(_ev(FaultKind.CORRECTABLE, float(t), addr=t))
        log.record(_ev(FaultKind.UNCORRECTABLE, 4.5, addr=99))
        assert len(log.events(FaultKind.CORRECTABLE)) == 10
        assert len(log.events(FaultKind.UNCORRECTABLE)) == 1
        assert [e.addr for e in log.events(FaultKind.CORRECTABLE, since_ns=7.0)] == [7, 8, 9]
        assert [e.addr for e in log.events(since_ns=4.5)] == [5, 6, 7, 8, 9, 99]

    def test_count_matches_events(self):
        log = FaultLog()
        for t in range(100):
            kind = FaultKind.CORRECTABLE if t % 3 else FaultKind.UNCORRECTABLE
            log.record(_ev(kind, float(t)))
        for kind in (None, FaultKind.CORRECTABLE, FaultKind.UNCORRECTABLE):
            for since in (0.0, 33.0, 99.5):
                assert log.count(kind, since_ns=since) == len(log.events(kind, since_ns=since))

    def test_since_equal_timestamp_is_inclusive(self):
        log = FaultLog()
        log.record(_ev(FaultKind.CORRECTABLE, 5.0, addr=1))
        log.record(_ev(FaultKind.CORRECTABLE, 6.0, addr=2))
        assert [e.addr for e in log.events(since_ns=5.0)] == [1, 2]

    def test_compact_drops_prefix_only(self):
        log = FaultLog()
        for t in range(20):
            kind = FaultKind.CORRECTABLE if t % 2 else FaultKind.LINK_DOWN
            log.record(_ev(kind, float(t)))
        dropped = log.compact(before_ns=10.0)
        assert dropped == 10
        assert len(log) == 10
        assert log.total_recorded == 20
        assert [e.time_ns for e in log.events()] == [float(t) for t in range(10, 20)]
        # per-kind views were compacted consistently
        assert all(e.time_ns >= 10.0 for e in log.events(FaultKind.CORRECTABLE))
        assert log.count(FaultKind.LINK_DOWN) == 5
        # queries still work after compaction
        assert log.count(FaultKind.CORRECTABLE, since_ns=15.0) == 3

    def test_compact_noop_when_nothing_older(self):
        log = FaultLog()
        log.record(_ev(FaultKind.CORRECTABLE, 10.0))
        assert log.compact(before_ns=5.0) == 0
        assert len(log) == 1

    def test_listeners_survive_compaction(self):
        log = FaultLog()
        seen = []
        log.subscribe(seen.append)
        log.record(_ev(FaultKind.CORRECTABLE, 1.0))
        log.compact(before_ns=2.0)
        log.record(_ev(FaultKind.CORRECTABLE, 3.0))
        assert len(seen) == 2

    def test_repair_events_are_logged(self):
        log = FaultLog()
        inj = _injector(0.0)
        inj.log = log
        inj.record_repair(0x1000, node_id=1, now_ns=5.0, detail="source=test")
        (event,) = log.events(FaultKind.REPAIR)
        assert event.addr == 0x1000 and event.detail == "source=test"


# -- single-op gate and run-granular cache maintenance: fault exactness ---------
#
# The gate in ``RackMachine._access`` skips the fault roll and the poison check
# only when neither can have an effect, and the cache reads or writes a run of
# lines in one backing call only when the per-line sequence is unobservable.
# Wherever a fault can fire or poison exists, every observable must be what the
# line-at-a-time code produced: the values pinned below were recorded from it
# (commit 38f08da) with ``_dump()``::
#
#     PYTHONPATH=src:tests python -c "from rack.test_faults_regression import _dump; _dump()"


def _observe(m, node_id, error):
    """Everything a fault-path divergence would show up in."""
    node = m.nodes[node_id]
    return {
        "raised": None if error is None else (type(error).__name__, error.addr),
        "clock": node.clock.now_ns,
        "log": [(e.kind.value, e.time_ns, e.addr, e.node_id, e.detail) for e in m.faults.log.events()],
        "next_draw": m.faults.rng.random(),
        "resident": [(base, line.dirty) for base, line in node.cache._lines.items()],
        "stats": dataclasses.astuple(node.cache.stats),
        "poisoned": sorted(m.global_mem.poisoned),
    }


def _drive(m, ops):
    """Run ``ops`` on node 0 until one raises; returns the error (or None)."""
    for op, *args in ops:
        try:
            getattr(m, op)(0, *args)
        except UncorrectableMemoryError as error:
            return error
    return None


def _armed_rates_scenario():
    """Ten-line cached spans through an 8-line cache with CE/UE rates armed."""
    m = RackMachine(RackConfig(
        n_nodes=2, cache_lines=8, seed=7,
        faults=FaultModel(global_ce_rate=0.2, global_ue_rate=0.02, local_ce_rate=0.1),
    ))
    g = m.global_base + 4096
    payload = bytes(range(256)) * 3
    ops = []
    for i in range(12):
        span = g + i * 1024 + 30
        ops += [("store", span, payload[:600]), ("flush", span, 600),
                ("invalidate", span, 600), ("load", span, 600), ("atomic_load", span - 30)]
    return _observe(m, 0, _drive(m, ops))


def _poisoned_line_scenario(op):
    """One poisoned byte in line 6 of a ten-line span, no random faults."""
    m = RackMachine(RackConfig(n_nodes=2, cache_lines=16, seed=1))
    g = m.global_base + 8192
    m.store(0, g, b"\x5a" * 640)
    m.flush_invalidate(0, g, 640)
    m.global_mem.poison(g - m.global_base + 6 * 64 + 5, 1)
    ops = {
        "load": [("load", g + 30, 600)],
        # the span ends inside line 6: lines 0-5 are installed before the fetch raises
        "store": [("store", g, b"\xa5" * (6 * 64 + 20))],
        # a full-line overwrite never fetches; its write-back heals the line
        "flush": [("store", g, b"\xa5" * 640), ("flush", g, 640), ("load", g + 6 * 64, 8)],
    }[op]
    return _observe(m, 0, _drive(m, ops))


_FAULT_SCENARIOS = {
    "armed_rates": _armed_rates_scenario,
    "poison_load": lambda: _poisoned_line_scenario("load"),
    "poison_store": lambda: _poisoned_line_scenario("store"),
    "poison_flush": lambda: _poisoned_line_scenario("flush"),
}


def _digest(observed) -> str:
    return hashlib.sha256(repr(sorted(observed.items())).encode()).hexdigest()[:16]


#: scenario -> (raised, node clock at the raise, fault-log length, digest of it all)
_RECORDED = {
    'armed_rates': (('UncorrectableMemoryError', 1099511635136), 5279.333333333334, 16, '1b5275e6cfea8371'),
    'poison_load': (('UncorrectableMemoryError', 1099511636352), 399.0, 0, '69a70f4e6b6c8249'),
    'poison_store': (('UncorrectableMemoryError', 1099511636352), 399.0, 0, 'a099d30fd473a207'),
    'poison_flush': (None, 785.0, 0, '7f82ee7270109cd3'),
}


def _dump() -> None:  # pragma: no cover - regeneration helper
    for name, scenario in _FAULT_SCENARIOS.items():
        seen = scenario()
        print(f"    {name!r}: ({seen['raised']!r}, {seen['clock']!r}, {len(seen['log'])}, {_digest(seen)!r}),")


@pytest.mark.parametrize("name", sorted(_FAULT_SCENARIOS))
def test_fault_path_observables_match_the_per_line_code(name):
    seen = _FAULT_SCENARIOS[name]()
    raised, clock, n_events, digest = _RECORDED[name]
    assert seen["raised"] == raised
    assert seen["clock"] == clock
    assert len(seen["log"]) == n_events
    assert _digest(seen) == digest, seen


def test_crashed_node_raises_from_every_single_op():
    """The gate checks liveness first — cache-resident lines are no way round."""
    m = RackMachine(RackConfig(n_nodes=2))
    g = m.global_base
    m.store(0, g, b"resident")  # node 0 now holds the line
    m.nodes[0].alive = False  # dead, but (unlike crash_node) the cache is not wiped
    ops = [
        lambda: m.load(0, g, 8),
        lambda: m.load(0, g, 200),
        lambda: m.load(0, g, 8, bypass_cache=True),
        lambda: m.store(0, g, b"x"),
        lambda: m.store(0, g, b"x" * 200),
        lambda: m.store(0, g, b"x", bypass_cache=True),
        lambda: m.atomic_load(0, g),
        lambda: m.atomic_store(0, g, 1),
        lambda: m.atomic_cas(0, g, 0, 1),
        lambda: m.atomic_fetch_add(0, g, 1),
        lambda: m.atomic_swap(0, g, 1),
        lambda: m.flush(0, g, 8),
        lambda: m.invalidate(0, g, 8),
        lambda: m.flush_invalidate(0, g, 8),
        lambda: m.flush_all(0),
        lambda: m.fence(0),
        lambda: m.copy(0, g + 4096, g, 64, bypass_cache=True),
        lambda: m.fill(0, g, 64, 0, bypass_cache=True),
    ]
    before = m.now(0)
    for op in ops:
        with pytest.raises(NodeCrashedError):
            op()
    assert m.now(0) == before
    assert m.load(1, g, 8) == bytes(8)  # nothing of the dead node's reached memory


def test_add_region_mid_run_drops_the_tlb_for_atomics_and_backing_closures(monkeypatch):
    m = RackMachine(RackConfig(n_nodes=2))
    g = m.global_base
    resolves = []
    resolve = m._resolve_fast
    monkeypatch.setattr(m, "_resolve_fast", lambda *a: resolves.append(a) or resolve(*a))

    def traffic():
        m.atomic_fetch_add(0, g, 1)  # the atomic prologue
        m.invalidate(0, g + 4096, 640)
        m.load(0, g + 4096, 640)  # ten-line run: the backing reader
        m.store(0, g + 8192, b"w" * 640)
        m.flush(0, g + 8192, 640)  # ten-line run: the backing writer

    traffic()
    del resolves[:]
    traffic()
    assert resolves == []  # warm: every window comes out of the one-entry TLB
    extra = PhysicalMemory(1 << 16, MemoryKind.GLOBAL, "extra")
    late = g + m.global_size
    with pytest.raises(OutOfRangeError):
        m.atomic_load(0, late)
    del resolves[:]
    m.address_map.add_region(Region(base=late, size=extra.size, device=extra, owner=None))
    traffic()
    assert len(resolves) == 1 and m._tlb_gen == m.address_map.generation
    # the new region is reachable through every path that resolves
    m.atomic_store(0, late, 0xABCD)
    assert extra.read(0, 2) == b"\xcd\xab"
    m.store(0, late + 64, b"n" * 640)
    m.flush(0, late + 64, 640)
    assert extra.read(64, 640) == b"n" * 640
    m.invalidate(0, late + 64, 640)
    assert m.load(0, late + 64, 640) == b"n" * 640
