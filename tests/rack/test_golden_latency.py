"""Golden-latency regression tests for the data-plane fast path.

The fast path (bisect resolve + software TLB, single-line cache fast
path, zero-fault short-circuit, precomputed charge tables) must not
change a single observable: charged simulated nanoseconds, cache-stat
counters, or the seeded fault-event sequence.  These tests pin all three
over a scripted access pattern, in ``tests/pins.json``: the values the
*pre-optimization* data plane charged.

Bypass (non-temporal) stores charge symmetrically with bypass loads
(ISSUE 6 satellite): the interim write-flag adjustment double-counted
``writeback_line_ns`` on lines that were never cached, so the recorded
``bypass_store_*`` values — equal to their ``bypass_load_*`` twins — are
exact again and every step must match the recording bit for bit.

Only an intended change to the latency *model* re-pins them (``tests/pins.py``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.rack import RackConfig, RackMachine, UncorrectableMemoryError
from repro.rack.machine import SlotWindow
from repro.rack.params import FaultModel


# -- scripted access pattern -------------------------------------------------


def _run_latency_pattern(cfg: RackConfig) -> Tuple[List[Tuple[str, int, float]], Dict[str, Tuple[int, ...]]]:
    """Drive one machine through every data-plane shape.

    Returns ``(steps, stats)`` where each step is
    ``(label, node_id, charged_ns_delta)`` for the issuing node, and
    ``stats`` maps ``"node<i>"`` to the node's final cache counters
    ``(hits, misses, writebacks, invalidations, evictions)``.
    """
    m = RackMachine(cfg)
    g = m.global_base
    loc = m.local_base(0)
    steps: List[Tuple[str, int, float]] = []

    def run(label: str, node_id: int, fn) -> None:
        before = m.now(node_id)
        fn()
        steps.append((label, node_id, m.now(node_id) - before))

    # cached loads: miss, hit, line-crossing, multi-line burst
    run("load_miss_1line", 0, lambda: m.load(0, g, 8))
    run("load_hit_1line", 0, lambda: m.load(0, g, 8))
    run("load_cross_2line", 0, lambda: m.load(0, g + 60, 8))
    run("load_burst_4line", 0, lambda: m.load(0, g + 128, 256))
    run("load_unaligned_tail", 0, lambda: m.load(0, g + 129, 63))

    # cached stores: hit, partial-line miss, full-line allocate
    run("store_hit_1line", 0, lambda: m.store(0, g, b"\x11" * 8))
    run("store_partial_miss", 0, lambda: m.store(0, g + 512, b"\x22" * 8))
    run("store_full_alloc", 0, lambda: m.store(0, g + 1024, b"\x33" * 64))
    run("store_burst_alloc_4line", 0, lambda: m.store(0, g + 4096, b"\x44" * 256))

    # bypass (non-temporal) loads
    run("bypass_load_4k", 0, lambda: m.load(0, g + 8192, 4096, bypass_cache=True))
    run("bypass_load_local", 0, lambda: m.load(0, loc, 4096, bypass_cache=True))

    # atomics: global (fabric round trip) and local
    run("atomic_fa_global", 0, lambda: m.atomic_fetch_add(0, g + 16384, 1))
    run("atomic_cas_global", 0, lambda: m.atomic_cas(0, g + 16384, 1, 2))
    run("atomic_swap_local", 0, lambda: m.atomic_swap(0, loc + 64, 9))
    run("atomic_load_global", 0, lambda: m.atomic_load(0, g + 16384))
    run("atomic_store_local", 0, lambda: m.atomic_store(0, loc + 64, 3))

    # maintenance: flush dirty, flush clean, invalidate, civac, fence
    run("flush_dirty_range", 0, lambda: m.flush(0, g, 600))
    run("flush_clean_range", 0, lambda: m.flush(0, g, 600))
    run("invalidate_range", 0, lambda: m.invalidate(0, g, 600))
    run("flush_invalidate_line", 0, lambda: m.flush_invalidate(0, g + 1024, 64))
    run("fence", 0, lambda: m.fence(0))
    run("store_then_flush_all", 0, lambda: (m.store(0, g + 2048, b"\x88" * 64), m.flush_all(0)))

    # local cached accesses (no fabric charge)
    run("local_load_miss", 0, lambda: m.load(0, loc + 128, 8))
    run("local_load_hit", 0, lambda: m.load(0, loc + 128, 8))
    run("local_store_hit", 0, lambda: m.store(0, loc + 128, b"\x99" * 8))

    # bypass stores last on node 0 (recorded order; moving them would
    # shift later steps' clock bases and their float subtraction)
    run("bypass_store_4k", 0, lambda: m.store(0, g + 8192, b"\x55" * 4096, bypass_cache=True))
    run("bypass_store_1line", 0, lambda: m.store(0, g + 8192, b"\x66" * 8, bypass_cache=True))
    run("bypass_store_local", 0, lambda: m.store(0, loc, b"\x77" * 4096, bypass_cache=True))

    # second node: its own clock, global path from a different port
    run("n1_load_miss", 1, lambda: m.load(1, g, 64))
    run("n1_store_hit", 1, lambda: m.store(1, g, b"\xaa" * 8))
    run("n1_atomic_fa", 1, lambda: m.atomic_fetch_add(1, g + 16384, 1))
    run("n1_flush", 1, lambda: m.flush(1, g, 64))

    stats = {}
    for nid in (0, 1):
        s = m.nodes[nid].cache.stats
        stats[f"node{nid}"] = (s.hits, s.misses, s.writebacks, s.invalidations, s.evictions)
    return steps, stats


def _run_eviction_pattern() -> Tuple[List[Tuple[str, int, float]], Dict[str, Tuple[int, ...]]]:
    """A 4-line cache forced through clean and dirty evictions."""
    cfg = RackConfig(n_nodes=2, cache_lines=4)
    m = RackMachine(cfg)
    g = m.global_base
    steps: List[Tuple[str, int, float]] = []

    def run(label: str, fn) -> None:
        before = m.now(0)
        fn()
        steps.append((label, 0, m.now(0) - before))

    for i in range(6):  # 4 fills then 2 clean evictions
        run(f"fill_{i}", lambda i=i: m.load(0, g + i * 64, 8))
    run("dirty_all", lambda: m.store(0, g + 2 * 64, b"\xbb" * 8))
    for i in range(6, 10):  # dirty + clean victims pushed out
        run(f"evict_{i}", lambda i=i: m.load(0, g + i * 64, 8))
    s = m.nodes[0].cache.stats
    return steps, {"node0": (s.hits, s.misses, s.writebacks, s.invalidations, s.evictions)}


def _run_fault_pattern() -> List[Tuple[str, int, int, float]]:
    """Seeded fault-injecting run; returns the full FaultLog sequence.

    Uses only cached ops, atomics, and bypass *loads* so the recorded
    event times are independent of the ``_charge_bulk`` write-flag fix.
    """
    cfg = RackConfig(
        n_nodes=2,
        faults=FaultModel(global_ce_rate=0.02, global_ue_rate=0.01, local_ce_rate=0.001),
        seed=1234,
    )
    m = RackMachine(cfg)
    g = m.global_base
    loc = m.local_base(0)
    for i in range(400):
        addr = g + (i % 97) * 64
        try:
            op = i % 4
            if op == 0:
                m.load(0, addr, 8)
            elif op == 1:
                m.store(0, addr, b"\xcd" * 8)
            elif op == 2:
                m.atomic_fetch_add(0, g + 64 * 128 + (i % 7) * 8, 1)
            else:
                m.load(0, addr, 64, bypass_cache=True)
            if i % 16 == 15:
                m.load(0, loc + (i % 31) * 64, 8)
        except UncorrectableMemoryError:
            pass
    return [
        (e.kind.value, -1 if e.addr is None else e.addr, -1 if e.node_id is None else e.node_id,
         round(e.time_ns, 3))
        for e in m.faults.log.events()
    ]


def _topologies():
    return {
        "dual_direct_1hop": RackConfig(n_nodes=2, topology="dual_direct"),
        "single_switch": RackConfig(n_nodes=2, topology="single_switch"),
        "two_tier_2switch": RackConfig(n_nodes=5, topology="two_tier"),
        "pmem_pool": RackConfig(n_nodes=2, global_kind="pmem"),
    }


# -- tests -------------------------------------------------------------------


def _latency_runs() -> dict:
    return {name: dict(zip(("steps", "stats"), _run_latency_pattern(cfg)))
            for name, cfg in _topologies().items()}


def test_golden_latency_all_topologies(pin):
    pin(_latency_runs())


def test_golden_eviction_charges(pin):
    pin(dict(zip(("steps", "stats"), _run_eviction_pattern())))


def test_bypass_store_load_charge_symmetry():
    """ISSUE 6 satellite: a non-temporal store charges exactly what the
    equivalent non-temporal load does — no writeback term for lines that
    were never cached (flush still charges write-back per dirty line)."""
    for name, cfg in _topologies().items():
        m = RackMachine(cfg)
        g = m.global_base
        for size in (8, 64, 4096):
            before = m.now(0)
            m.load(0, g, size, bypass_cache=True)
            load_ns = m.now(0) - before
            before = m.now(1)
            m.store(1, g, b"\x5a" * size, bypass_cache=True)
            store_ns = m.now(1) - before
            assert store_ns == load_ns, (name, size)
        # the pinned access pattern holds the same equality
        steps = {lbl: d for lbl, _n, d in _run_latency_pattern(cfg)[0]}
        assert steps["bypass_store_4k"] == steps["bypass_load_4k"]


def test_golden_bulk_charges_bit_identical_to_loop():
    """Every bulk op charges simulated ns
    bit-identically to the loop of single ops it replaces, on every
    recorded topology, for bypass, cached, and atomic batches."""
    for name, cfg in _topologies().items():
        ma, mb = RackMachine(cfg), RackMachine(cfg)
        g = ma.global_base
        loc = ma.local_base(0)
        addrs = [g + i * 64 for i in range(32)] + [loc + i * 64 for i in range(8)]

        ma.load_many(0, addrs, 8, bypass_cache=True)
        for a in addrs:
            mb.load(0, a, 8, bypass_cache=True)
        assert ma.now(0) == mb.now(0), (name, "bypass load")

        for base, n in ((g, 32), (loc, 8)):  # a held window's row table, per region
            ma.store_many(0, SlotWindow(ma.address_map, base, n, 64).at(range(n)), b"\x5a" * 64 * n)
            for i in range(n):
                mb.store(0, base + i * 64, b"\x5a" * 64, bypass_cache=True)
            assert ma.now(0) == mb.now(0), (name, "bypass store")

        # cached: cold pass (misses) then warm pass (fused hit loop)
        for _ in range(2):
            ma.load_many(0, addrs, 8)
            for a in addrs:
                mb.load(0, a, 8)
            assert ma.now(0) == mb.now(0), (name, "cached load")

        loc1 = ma.local_base(1)
        atomics = [g + 65536 + i * 8 for i in range(16)] + [loc1 + 8192 + i * 8 for i in range(4)]
        ma.atomic_fetch_add_many(1, atomics, 3)
        for a in atomics:
            mb.atomic_fetch_add(1, a, 3)
        assert ma.now(1) == mb.now(1), (name, "fetch_add batch")
        ma.atomic_cas_many(1, atomics, [3] * len(atomics), [7] * len(atomics))
        for a in atomics:
            mb.atomic_cas(1, a, 3, 7)
        assert ma.now(1) == mb.now(1), (name, "cas batch")


def test_seeded_fault_sequence_identical(pin):
    """The zero-fault short-circuit must leave injecting configs untouched:
    identical event kinds, addresses, nodes, and timestamps."""
    pin(_run_fault_pattern())


def test_zero_rate_config_produces_no_events():
    cfg = RackConfig(n_nodes=2)
    m = RackMachine(cfg)
    g = m.global_base
    for i in range(100):
        m.load(0, g + i * 64, 8)
        m.store(0, g + i * 64, b"\x01" * 8)
    assert len(m.faults.log) == 0
    # the RNG stream is untouched when no fault can fire
    assert m.faults.rng.random() == type(m.faults.rng)(cfg.seed).random()


# -- observability must not perturb the data plane (ISSUE 4 satellite) -------


def test_telemetry_disabled_by_default():
    """A fresh process never pays more than the ``enabled`` attribute check."""
    from repro import telemetry

    assert not telemetry.TELEMETRY.enabled
    assert not telemetry.TELEMETRY.tracing
    # nothing above accidentally recorded while disabled
    assert not telemetry.TELEMETRY.registry.counters


def test_golden_latency_with_telemetry_enabled():
    """Recording metrics must add zero simulated time: the pinned charged
    ns and cache counters of the untraced run hold bit for bit with
    telemetry (and tracing) on — instrumentation costs host CPU only."""
    from repro import telemetry

    untraced = _latency_runs()
    telemetry.reset()
    telemetry.enable(tracing=True)
    try:
        assert _latency_runs() == untraced
        # and the registry actually saw the traffic
        reg = telemetry.TELEMETRY.registry
        assert reg.counter_total("rack.machine", "cache.hit") > 0
        assert reg.counter_total("rack.machine", "cache.miss") > 0
    finally:
        telemetry.disable()
        telemetry.reset()


def test_telemetry_cache_counters_match_cache_stats():
    """Satellite fix: hit/miss accounting routed through telemetry must
    agree with the per-node ``cache.stats`` compatibility view."""
    from repro import telemetry

    telemetry.reset()
    telemetry.enable()
    try:
        cfg = RackConfig(n_nodes=2)
        steps, stats = _run_latency_pattern(cfg)
        reg = telemetry.TELEMETRY.registry
        for nid in (0, 1):
            hits, misses = stats[f"node{nid}"][0], stats[f"node{nid}"][1]
            assert reg.counters.get((nid, "rack.machine", "cache.hit"), 0.0) == hits
            assert reg.counters.get((nid, "rack.machine", "cache.miss"), 0.0) == misses
    finally:
        telemetry.disable()
        telemetry.reset()
