"""Property tests: the bulk data plane is a loop of single ops.

Seeded randomized equivalence (ISSUE 6 satellite): for every batch shape
— cached and bypass, loads and stores, batched atomics — the bulk API
must match a loop of single ops in *every* observable:

* returned bytes / returned atomic values,
* charged simulated ns, bit for bit,
* full cache state (resident lines, their bytes, dirty bits, **LRU
  order** — it steers future evictions — and the stats counters),
* backing-memory bytes,
* fault-log contents, and
* telemetry counters.

Batches deliberately include region-straddling addresses (errors must
surface at the same op index with the same partial side effects) and
poisoned lines hit mid-batch.

The second half holds the slot form — ``load_many`` / packed
``store_many`` on a :class:`SlotRef` into a held :class:`SlotWindow` —
to the same reference: Hypothesis-drawn windows, index batches with
repeats and payloads against the loop of single ops on a twin machine,
and one table of the batches a held window hands to that loop.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.rack import NodeCrashedError, RackConfig, RackMachine, UncorrectableMemoryError
from repro.rack import machine as machine_module
from repro.rack.machine import SlotWindow
from repro.rack.memory import MemoryError_, MemoryKind, PhysicalMemory, Region
from repro.rack.params import FaultModel

LINE = 64
GSIZE = 1 << 16
LSIZE = 1 << 16


def _config(seed: int, faults: FaultModel = None) -> RackConfig:
    return RackConfig(
        n_nodes=2,
        local_mem_size=LSIZE,
        global_mem_size=GSIZE,
        cache_lines=64,  # small enough that batches force evictions
        faults=faults or FaultModel(),
        seed=seed,
    )


def _state(m: RackMachine) -> dict:
    """Every observable of a machine, snapshot for equality checks."""
    out = {}
    for nid, node in m.nodes.items():
        s = node.cache.stats
        out[f"cache{nid}"] = [
            (base, bytes(line.data), line.dirty)
            for base, line in node.cache._lines.items()  # insertion order == LRU order
        ]
        out[f"stats{nid}"] = (s.hits, s.misses, s.writebacks, s.invalidations, s.evictions)
        out[f"clock{nid}"] = node.clock.now_ns
        out[f"local{nid}"] = bytes(node.local_mem._buf)
        out[f"poison{nid}"] = sorted(node.local_mem.poisoned)
    out["gmem"] = bytes(m.global_mem._buf)
    out["gpoison"] = sorted(m.global_mem.poisoned)
    out["faults"] = [
        (e.kind.value, e.addr, e.node_id, e.time_ns) for e in m.faults.log.events()
    ]
    out["rng"] = m.faults.rng.getstate()
    return out


def _addr_batch(rng: random.Random, m: RackMachine, n: int, size: int, straddle: bool) -> list:
    """Addresses across both legal regions; optionally one that falls
    off the end of the global region mid-batch."""
    g = m.global_base
    loc = m.local_base(0)
    addrs = []
    for _ in range(n):
        if rng.random() < 0.3:
            addrs.append(loc + rng.randrange(0, LSIZE - size))
        else:
            addrs.append(g + rng.randrange(0, GSIZE - size))
    if straddle and n >= 2:
        addrs[rng.randrange(1, n)] = g + GSIZE - max(1, size // 2)
    return addrs


def _apply(fn):
    """Run ``fn``, capturing a raised error as a comparable value."""
    try:
        return ("ok", fn())
    except (MemoryError_, ValueError) as e:
        return ("err", type(e).__name__, str(e))


def _loop(fn, items):
    """Run ``fn`` per item for effect (a store loop returns nothing)."""
    for it in items:
        fn(it)


def _pair(seed: int, faults: FaultModel = None):
    cfg = _config(seed, faults)
    return RackMachine(cfg), RackMachine(cfg)


def _overlap_shapes(m: RackMachine, size: int) -> dict:
    """Store batches whose target windows collide, by name: exact
    duplicates (the last writer in op order wins) and partial overlaps
    (offset gap 0 < g < size: bytes of several ops interleave)."""
    g = m.global_base + 512
    loc = m.local_base(0) + 256
    far = [g + 4096 + i * 2 * size for i in range(5)]  # disjoint filler
    shapes = {
        "three_writers": [g, far[0], g, far[1], g],
        "four_writers_only": [g] * 4,
        "several_duplicated": [g, far[0], far[1], g, far[0], far[2], far[1], far[0]],
        "global_and_local": [g, loc, far[0], loc, g, loc + 2 * size, g, loc],
    }
    if size > 1:
        shapes["partial_overlap"] = [g, far[0], g + size // 2, far[1]]
        shapes["partial_overlap_of_duplicate"] = [g, g, g + size - 1, g]
    return shapes


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("bypass", [False, True])
def test_load_many_equals_loop(seed, bypass):
    ma, mb = _pair(seed)
    rng = random.Random(seed * 31 + 7)
    for batch in range(8):
        size = rng.choice([1, 7, 8, 64, 100, 256])
        n = rng.randrange(1, 40)
        straddle = batch == 5
        addrs = _addr_batch(rng, ma, n, size, straddle)
        # seed some content so loads return non-trivial bytes
        blob = bytes(rng.randrange(256) for _ in range(size))
        for m in (ma, mb):
            m.store(0, addrs[0], blob, bypass_cache=True)
        ra = _apply(lambda: ma.load_many(0, addrs, size, bypass_cache=bypass))
        rb = _apply(lambda: [mb.load(0, a, size, bypass_cache=bypass) for a in addrs])
        assert ra == rb
        assert _state(ma) == _state(mb)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("bypass", [False, True])
def test_store_many_equals_loop(seed, bypass):
    ma, mb = _pair(seed)
    rng = random.Random(seed * 137 + 3)
    for batch in range(8):
        if rng.random() < 0.7:
            size = rng.choice([1, 8, 64, 100])
            sizes = [size] * rng.randrange(1, 40)
        else:  # ragged payload sizes (sequential-only shape)
            sizes = [rng.choice([1, 8, 64, 100]) for _ in range(rng.randrange(1, 20))]
        addrs = _addr_batch(rng, ma, len(sizes), max(sizes), batch == 5)
        if batch == 6 and len(addrs) >= 2:
            addrs[-1] = addrs[0]  # duplicate target: op order must win
        data = [bytes(rng.randrange(256) for _ in range(s)) for s in sizes]
        ra = _apply(lambda: ma.store_many(0, addrs, data, bypass_cache=bypass))
        rb = _apply(
            lambda: _loop(
                lambda ad: mb.store(0, ad[0], ad[1], bypass_cache=bypass),
                zip(addrs, data),
            )
        )
        assert ra == rb
        assert _state(ma) == _state(mb)
    size = rng.choice([1, 8, 64, 100])
    for name, addrs in _overlap_shapes(ma, size).items():
        data = [bytes(rng.randrange(256) for _ in range(size)) for _ in addrs]
        ma.store_many(0, addrs, data, bypass_cache=bypass)
        for a, d in zip(addrs, data):
            mb.store(0, a, d, bypass_cache=bypass)
        assert _state(ma) == _state(mb), name


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("bypass", [True, False])
def test_store_many_packed_equals_loop(seed, bypass):
    """The packed-buffer form (one blob + explicit size) must match the
    loop of single stores of the split payloads, including the
    region-straddling fallback and duplicate-target sequential shapes."""
    ma, mb = _pair(seed)
    rng = random.Random(seed * 211 + 5)
    for batch in range(6):
        size = rng.choice([1, 8, 64, 100])
        n = rng.randrange(1, 40)
        addrs = _addr_batch(rng, ma, n, size, batch == 3)
        if batch == 4 and n >= 2:
            addrs[-1] = addrs[0]
        packed = bytes(rng.randrange(256) for _ in range(n * size))
        chunks = [packed[i * size : (i + 1) * size] for i in range(n)]
        ra = _apply(
            lambda: ma.store_many(0, addrs, packed, bypass_cache=bypass, size=size)
        )
        rb = _apply(
            lambda: _loop(
                lambda ad: mb.store(0, ad[0], ad[1], bypass_cache=bypass),
                zip(addrs, chunks),
            )
        )
        assert ra == rb
        assert _state(ma) == _state(mb)
    size = rng.choice([1, 8, 64, 100])
    for name, addrs in _overlap_shapes(ma, size).items():
        packed = bytes(rng.randrange(256) for _ in range(len(addrs) * size))
        ma.store_many(0, addrs, packed, bypass_cache=bypass, size=size)
        for i, a in enumerate(addrs):
            mb.store(0, a, packed[i * size : (i + 1) * size], bypass_cache=bypass)
        assert _state(ma) == _state(mb), name
    # arity errors: wrong packed length, bad size
    with pytest.raises(ValueError):
        ma.store_many(0, [ma.global_base], b"\x00" * 7, size=8)
    with pytest.raises(ValueError):
        ma.store_many(0, [ma.global_base], b"", size=0)


def test_duplicate_store_telemetry_and_atlas_match_loop():
    """A deduplicated scatter still counts and touches every op: registry
    counters and hot-page/line sketches equal the single-store loop's."""
    from repro.telemetry.atlas import enable_atlas

    def run(bulk: bool):
        telemetry.reset()
        telemetry.enable()
        try:
            m = RackMachine(_config(0))
            atlas = enable_atlas(m)
            for addrs in _overlap_shapes(m, 64).values():
                data = [bytes([i + 1]) * 64 for i in range(len(addrs))]
                if bulk:
                    m.store_many(0, addrs, b"".join(data), bypass_cache=True, size=64)
                else:
                    for a, d in zip(addrs, data):
                        m.store(0, a, d, bypass_cache=True)
            counters = dict(telemetry.TELEMETRY.registry.counters)
            return counters, atlas.pages.snapshot(), atlas.lines.snapshot(), _state(m)
        finally:
            telemetry.TELEMETRY.atlas = None
            telemetry.disable()
            telemetry.reset()

    assert run(bulk=True) == run(bulk=False)


@pytest.mark.parametrize("seed", range(4))
def test_bulk_with_poison_mid_batch(seed):
    ma, mb = _pair(seed)
    rng = random.Random(seed + 99)
    g = ma.global_base
    addrs = [g + i * LINE for i in range(24)]
    victim = addrs[rng.randrange(4, 20)] - g
    for m in (ma, mb):
        m.global_mem.poison(victim + 3)
    ra = _apply(lambda: ma.load_many(0, addrs, 8, bypass_cache=True))
    rb = _apply(lambda: [mb.load(0, a, 8, bypass_cache=True) for a in addrs])
    assert ra == rb and ra[0] == "err" and ra[1] == "UncorrectableMemoryError"
    assert _state(ma) == _state(mb)
    # stores clear poison per window, in op order
    data = [b"\xee" * 8] * len(addrs)
    ra = _apply(lambda: ma.store_many(0, addrs, data, bypass_cache=True))
    rb = _apply(
        lambda: _loop(lambda a: mb.store(0, a, b"\xee" * 8, bypass_cache=True), addrs)
    )
    assert ra == rb
    assert _state(ma) == _state(mb)


@pytest.mark.parametrize("seed", range(4))
def test_bulk_under_fault_injection_equals_loop(seed):
    """With fault rates armed the bulk path must defer to the sequential
    machinery: RNG draws and event timestamps interleave per op."""
    faults = FaultModel(global_ce_rate=0.05, global_ue_rate=0.02, local_ce_rate=0.01)
    ma, mb = _pair(seed, faults)
    rng = random.Random(seed * 7 + 1)
    for _ in range(4):
        addrs = _addr_batch(rng, ma, 20, 8, False)
        ra = _apply(lambda: ma.load_many(0, addrs, 8, bypass_cache=True))
        rb = _apply(lambda: [mb.load(0, a, 8, bypass_cache=True) for a in addrs])
        assert ra == rb
        assert _state(ma) == _state(mb)


@pytest.mark.parametrize("seed", range(5))
def test_atomic_many_equals_loop(seed):
    """Seeded batches of the vectorized atomics (store then load back): one
    region or global+local, with duplicates and a misaligned address."""
    ma, mb = _pair(seed)
    rng = random.Random(seed * 11 + 5)
    g = ma.global_base
    loc = ma.local_base(0)
    for batch in range(6):
        width = rng.choice([1, 2, 4, 8])
        n = rng.randrange(1, 24)
        pool = [g + rng.randrange(0, GSIZE // width - 1) * width for _ in range(n)]
        if rng.random() < 0.4:
            pool[0] = loc + rng.randrange(0, LSIZE // width - 1) * width
        if batch == 3 and n >= 2:
            pool[-1] = pool[0]  # duplicates chain: must go sequential
        if batch == 4:
            pool[0] += 1 if width > 1 else 0  # misalignment raises at index 0
        values = [rng.choice([0, -1, 255, rng.randrange(1 << 8 * width)]) for _ in range(n)]
        ra = _apply(lambda: ma.atomic_store_many(0, pool, values, width))
        rb = _apply(
            lambda: _loop(lambda av: mb.atomic_store(0, av[0], av[1], width), zip(pool, values))
        )
        assert ra == rb
        assert _state(ma) == _state(mb)
        ra = _apply(lambda: ma.atomic_load_many(0, pool, width))
        rb = _apply(lambda: [mb.atomic_load(0, a, width) for a in pool])
        assert ra == rb
        assert _state(ma) == _state(mb)


def test_atomic_many_with_cached_line_invalidates_like_loop():
    """A batch touching a line the node has cached must still invalidate
    it (sequential path), leaving cache state identical to the loop."""
    ma, mb = _pair(0)
    g = ma.global_base
    for m in (ma, mb):
        m.load(0, g, 8)  # cache the line the atomics will hit
    addrs = [g, g + 8, g + 16]
    ra = ma.atomic_load_many(0, addrs)
    rb = [mb.atomic_load(0, a) for a in addrs]
    assert ra == rb
    assert _state(ma) == _state(mb)
    assert g & ~63 not in ma.nodes[0].cache._lines


#: the address-form entry points of the bypass plane, by the single op they
#: stand for.  Three keep a vector path; a packed ``store`` given addresses
#: is the loop whatever the batch (DESIGN §10's census: no caller outside
#: tests) — the vector store is the slot form, in the second half of this file
_KINDS = ("load", "store", "atomic_load", "atomic_store")


def _issue(m, kind, batch, values, width, bulk):
    """One node-0 batch through entry point ``kind``: its bulk form, or the
    loop of single ops it stands for.  ``values`` feeds the atomic stores;
    plain stores write payload ``i`` = byte ``i + 1`` repeated."""
    if kind == "load":
        if bulk:
            return m.load_many(0, batch, width, bypass_cache=True)
        return [m.load(0, a, width, bypass_cache=True) for a in batch]
    if kind == "atomic_load":
        if bulk:
            return m.atomic_load_many(0, batch, width)
        return [m.atomic_load(0, a, width) for a in batch]
    if kind == "store":
        payloads = [bytes([i + 1 & 0xFF]) * width for i in range(len(batch))]
        if bulk:
            return m.store_many(0, batch, b"".join(payloads), bypass_cache=True, size=width)
        return _loop(lambda ad: m.store(0, ad[0], ad[1], bypass_cache=True), zip(batch, payloads))
    if bulk:
        return m.atomic_store_many(0, batch, values, width)
    per_op = [values] * len(batch) if isinstance(values, int) else values
    return _loop(lambda av: m.atomic_store(0, av[0], av[1], width), zip(batch, per_op))


def _observed(kind, prepare, addrs, values, width, bulk, faults=None):
    """Issue one batch (see :func:`_issue`) under :func:`_watched`."""
    return _watched(
        lambda m: (prepare(m), addrs(m))[1],
        lambda m, batch: _issue(m, kind, batch, values, width, bulk),
        faults,
    )


def _watched(prepare, issue, faults=None):
    """``issue(m, prepare(m))`` on a fresh machine with every sink on.
    Returns the ``(op, address)`` of every single op ``issue`` reached and
    everything it left behind: (outcome, registry counters, page sketch,
    line sketch, machine state)."""
    from repro.telemetry.atlas import enable_atlas

    singles = []
    real = {op: getattr(RackMachine, op) for op in _KINDS}

    def counted(op):
        return lambda self, *a, **kw: (singles.append((op, a[1])), real[op](self, *a, **kw))[1]

    telemetry.reset()
    telemetry.enable()
    try:
        m = RackMachine(_config(0, faults))
        atlas = enable_atlas(m)
        prepared = prepare(m)
        for op in _KINDS:
            setattr(RackMachine, op, counted(op))
        try:
            outcome = ("ok", issue(m, prepared))
        except (MemoryError_, ValueError, TypeError, NodeCrashedError) as e:
            outcome = (type(e).__name__, str(e))
        counters = dict(telemetry.TELEMETRY.registry.counters)
        return singles, (outcome, counters, atlas.pages.snapshot(), atlas.lines.snapshot(), _state(m))
    finally:
        for op in _KINDS:
            setattr(RackMachine, op, real[op])
        telemetry.TELEMETRY.atlas = None
        telemetry.disable()
        telemetry.reset()


def _spread(m: RackMachine, width: int, n: int = 40) -> list:
    """Unique aligned addresses over the global pool."""
    slots = random.Random(width).sample(range(GSIZE // width), n)
    return [m.global_base + slot * width for slot in slots]


@pytest.mark.parametrize("width", [1, 2, 4, 8])
@pytest.mark.parametrize("per_address", [False, True], ids=["broadcast", "per-address"])
def test_atomic_store_many_equals_loop(width, per_address):
    """One vectorized scatter (no single op issued) equals the store loop in
    bytes, clocks, cache state, fault log, counters and atlas sketches;
    values wrap to the width exactly as the single op's mask does."""
    if per_address:
        rng = random.Random(width + 17)
        values = [
            rng.choice([0, -1, (1 << 64) - 1, 1 << 8 * width, rng.randrange(1 << 8 * width)])
            for _ in range(40)
        ]
    else:
        values = (1 << 64) - 1  # the reclaimer's IDLE sentinel: does not fit int64
    args = ("atomic_store", lambda m: None, lambda m: _spread(m, width), values, width)
    singles, bulk = _observed(*args, bulk=True)
    assert singles == []
    assert bulk == _observed(*args, bulk=False)[1]
    assert bulk[0][0] == "ok"


def _words(*slots):
    return lambda m: [m.global_base + 8 * i for i in slots]


#: name: (addresses, machine preparation, fault model, error raised,
#:        ops the loop gets through before it)
_STORE_FALLBACKS = {
    "duplicate": (_words(0, 1, 2, 1, 3), None, None, None, 5),
    "misaligned": (lambda m: [m.global_base, m.global_base + 17, m.global_base + 24],
                   None, None, "ValueError", 2),
    "foreign": (lambda m: [m.global_base, m.global_base + 8, m.local_base(1) + 8, m.global_base + 16],
                None, None, "ProtectionError", 3),
    "unmapped": (lambda m: [m.global_base, m.global_base + GSIZE, m.global_base + 8],
                 None, None, "OutOfRangeError", 2),
    "cached_line": (_words(*range(12)), lambda m: m.load(0, m.global_base + 64, 8), None, None, 12),
    "armed_fault": (_words(*range(64)), None,
                    FaultModel(global_ce_rate=0.2, local_ce_rate=0.2), None, 64),
    "poisoned_window": (_words(*range(12)), lambda m: m.global_mem.poison(8 * 5 + 3),
                        None, "UncorrectableMemoryError", 6),
    "dead_node": (_words(*range(4)), lambda m: m.crash_node(0), None, "NodeCrashedError", 1),
}


@pytest.mark.parametrize("name", _STORE_FALLBACKS)
def test_atomic_store_many_fallbacks_equal_loop(name):
    """Every batch the plan rejects replays as single stores: the error (if
    any) surfaces at the same index with the same partial side effects."""
    addrs, prepare, faults, error, n_issued = _STORE_FALLBACKS[name]
    values = list(range(0x1100, 0x1100 + len(addrs(RackMachine(_config(0))))))
    args = ("atomic_store", prepare or (lambda m: None), addrs, values, 8)
    singles, bulk = _observed(*args, bulk=True, faults=faults)
    assert (singles, bulk) == _observed(*args, bulk=False, faults=faults)
    assert len(singles) == n_issued
    assert bulk[0][0] == (error or "ok")
    if faults is not None:
        assert bulk[4]["faults"]  # the armed model did fire


_PLAIN = ("load", "store")
_ATOMIC = ("atomic_load", "atomic_store")


class _Row(NamedTuple):
    kinds: tuple  # entry points the row applies to
    addrs: Callable  # machine -> batch addresses
    prepare: Callable = lambda m: None
    faults: Optional[FaultModel] = None
    values: Optional[list] = None  # atomic-store operands (default: distinct ints)
    loops: bool = True  # not one clean window: replays as the loop


#: One row per reason a batch is not one clean window (DESIGN.md §10), then
#: the rows that are.
_TAXONOMY = {
    "dead_node": _Row(_KINDS, _words(*range(4)), lambda m: m.crash_node(0)),
    "multi_region": _Row(
        _KINDS, lambda m: [m.global_base, m.local_base(0) + 8, m.global_base + 16]),
    "foreign_local": _Row(
        _KINDS, lambda m: [m.global_base, m.local_base(1) + 8, m.global_base + 16]),
    "unmapped": _Row(_KINDS, lambda m: [m.global_base, m.global_base + GSIZE, m.global_base + 8]),
    "straddling": _Row(_PLAIN, lambda m: [m.global_base, m.global_base + GSIZE - 4]),
    "armed_fault": _Row(
        _KINDS, _words(*range(64)), faults=FaultModel(global_ce_rate=0.2, local_ce_rate=0.2)),
    "poison_in_span": _Row(_KINDS, _words(*range(12)), lambda m: m.global_mem.poison(8 * 5 + 3)),
    "address_numpy_cannot_hold": _Row(
        _KINDS, lambda m: [m.global_base, 1 << 70, m.global_base + 8]),
    "partial_overlap": _Row(
        ("store",), lambda m: [m.global_base, m.global_base + 64, m.global_base + 4]),
    "value_numpy_cannot_hold": _Row(("atomic_store",), _words(0, 1, 2), values=[1, None, 3]),
    "duplicate": _Row(_ATOMIC, _words(0, 1, 2, 1, 3)),
    "misaligned": _Row(_ATOMIC, lambda m: [m.global_base, m.global_base + 17, m.global_base + 24]),
    "issuer_cached": _Row(_ATOMIC, _words(*range(12)), lambda m: m.load(0, m.global_base + 64, 8)),
    "one_region_exact_duplicates": _Row(_PLAIN, _words(0, 1, 0, 2, 0), loops=False),
    "a_fraction_of_a_slot_apart": _Row(("load",), lambda m: [m.global_base, m.global_base + 4]),
    "one_region_unique": _Row(_KINDS, _words(*range(12)), loops=False),
    "one_region_unique_local": _Row(
        _KINDS, lambda m: [m.local_base(0) + 8 * i for i in range(12)], loops=False),
}


@pytest.mark.parametrize("name", _TAXONOMY)
def test_one_window_or_the_loop(name):
    """Which path a batch takes, counted (not timed), for every address-form
    entry point: a batch that is not one clean window replays as the loop of
    single ops — same ops reached in the same order, same outcome, same
    state — and a batch that is one issues no single op at all (the packed
    store excepted: given addresses it is always the loop)."""
    row = _TAXONOMY[name]
    n = len(row.addrs(RackMachine(_config(0))))
    values = row.values or list(range(0x1100, 0x1100 + n))
    for kind in row.kinds:
        args = (kind, row.prepare, row.addrs, values, 8)
        singles, bulk = _observed(*args, bulk=True, faults=row.faults)
        looped, loop = _observed(*args, bulk=False, faults=row.faults)
        assert bulk == loop, kind
        assert looped and singles == (looped if row.loops or kind == "store" else []), kind


def test_atomic_store_many_shapes():
    m = RackMachine(_config(0))
    g = m.global_base
    m.atomic_store_many(0, [], 0)
    m.atomic_store_many(0, range(g, g + 64, 8), 7)  # any sized sequence of ints
    m.context(0).atomic_store_many([g + 64, g + 72], [1, 2], 4)
    assert m.atomic_load_many(0, [g, g + 56, g + 64, g + 72], 4) == [7, 7, 1, 2]
    with pytest.raises(ValueError):
        m.atomic_store_many(0, [g, g + 8], [1])
    with pytest.raises(ValueError):
        m.atomic_store_many(0, [g], 0, width=3)


def test_boot_formats_regions_with_batched_stores(monkeypatch):
    """Counted, not timed: a rig boot keeps its single-op atomic stores to
    header words.  The capacity-proportional format loops (5,376 of the old
    boot's 5,454 stores were operation-log commit words) go through
    ``atomic_store_many`` and must not quietly come back."""
    from repro.bench.harness import build_rig

    calls = {"single": 0, "batched": 0}
    real_store, real_many = RackMachine.atomic_store, RackMachine.atomic_store_many

    def single(self, *a, **kw):
        calls["single"] += 1
        return real_store(self, *a, **kw)

    def many(self, node_id, addrs, *a, **kw):
        calls["batched"] += len(addrs)
        return real_many(self, node_id, addrs, *a, **kw)

    monkeypatch.setattr(RackMachine, "atomic_store", single)
    monkeypatch.setattr(RackMachine, "atomic_store_many", many)
    build_rig()
    assert calls["single"] < 200
    assert calls["batched"] > 5000


def test_bulk_telemetry_counters_match_loop():
    """Aggregated batch records must land on exactly the counter values
    the single-op loop produces."""
    telemetry.reset()
    telemetry.enable()
    try:
        ma, mb = _pair(0)
        g = ma.global_base
        addrs = [g + i * 8 for i in range(64)]
        reg = telemetry.TELEMETRY.registry
        ma.load_many(0, addrs, 8, bypass_cache=True)
        a_ctrs = dict(reg.counters)
        reg.clear()
        for a in addrs:
            mb.load(0, a, 8, bypass_cache=True)
        assert dict(reg.counters) == a_ctrs
        reg.clear()
        ma.load_many(0, addrs, 8)  # cold: misses
        ma.load_many(0, addrs, 8)  # warm: hits
        a_ctrs = dict(reg.counters)
        reg.clear()
        for _ in range(2):
            for a in addrs:
                mb.load(0, a, 8)
        assert dict(reg.counters) == a_ctrs
    finally:
        telemetry.disable()
        telemetry.reset()


def test_load_many_concat_and_empty():
    m = RackMachine(_config(0))
    g = m.global_base
    m.store(0, g, bytes(range(64)), bypass_cache=True)
    addrs = [g, g + 16, g + 32]
    parts = m.load_many(0, addrs, 16, bypass_cache=True)
    packed = m.load_many(0, addrs, 16, bypass_cache=True, concat=True)
    assert b"".join(parts) == packed == bytes(range(48))
    assert m.load_many(0, [], 8) == []
    assert m.load_many(0, [], 8, concat=True) == b""
    m.store_many(0, [], [])
    assert m.atomic_fetch_add_many(0, [], 1) == []
    assert m.atomic_cas_many(0, [], [], []) == []
    with pytest.raises(ValueError):
        m.store_many(0, [g], [b"x", b"y"])
    with pytest.raises(ValueError):
        m.atomic_fetch_add_many(0, [g], [1, 2])
    with pytest.raises(ValueError):
        m.atomic_cas_many(0, [g, g + 8], [1], [2, 3])


# -- the slot form: slots of a held window -------------------------------------------


def _window(m: RackMachine, n: int, size: int, owner: Optional[int] = None) -> SlotWindow:
    """``n`` slots of ``size`` bytes in the global pool, or in node
    ``owner``'s local memory, a little way in where they fit."""
    region_base = m.global_base if owner is None else m.local_base(owner)
    return SlotWindow(m.address_map, region_base + min(192, GSIZE - n * size), n, size)


def _payload(seed: int, n: int, size: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, (n, size), dtype=np.uint8)


def _slot_call(m, window, op, idx, seed, slot_form, node=0, size=None):
    """One bypass batch on slots ``idx``: through the held window, or as the
    loop of single ops it stands for."""
    size = window.size if size is None else size
    if slot_form:
        if op == "load":
            return m.load_many(node, window.at(idx), size, bypass_cache=True, concat=True)
        packed = _payload(seed, len(idx), size).reshape(-1)
        return m.store_many(node, window.at(idx), packed, size=size, bypass_cache=True)
    addrs = [window.base + i * window.size for i in idx]
    if op == "load":
        return b"".join(m.load(node, a, size, bypass_cache=True) for a in addrs)
    for a, row in zip(addrs, _payload(seed, len(idx), size)):
        m.store(node, a, row.tobytes(), bypass_cache=True)


@st.composite
def _slot_scripts(draw):
    n = draw(st.integers(1, 64))
    size = draw(st.sampled_from([1, 8, 64, 1024]))
    calls = st.tuples(
        st.sampled_from(["load", "store"]),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=48),  # repeats wanted
        st.integers(0, 2**31),
    )
    return n, size, draw(st.sampled_from([None, 0])), draw(st.lists(calls, min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(_slot_scripts())
def test_slot_form_equals_the_loop_of_single_ops(script):
    """Random windows (global and node-local), index batches with repeats and
    payloads, every sink on: bytes returned and stored, the issuing node's
    clock, cache state, fault log, RNG position, registry counters and atlas
    sketches equal the loop's on a twin machine — with no single op issued
    and the last-writer stamp back to all -1 after every call."""
    n, size, owner, calls = script

    def prepare(m):
        window = _window(m, n, size, owner)
        m.store(0, window.base, b"\x5a", bypass_cache=False)  # a dirty cached line to leave alone
        return window

    def run(m, window, slot_form):
        out = []
        for op, idx, seed in calls:
            out.append(_slot_call(m, window, op, idx, seed, slot_form))
            assert (window.stamp == -1).all()
        return out

    singles, slot = _watched(prepare, lambda m, w: run(m, w, True))
    assert singles == []
    assert slot == _watched(prepare, lambda m, w: run(m, w, False))[1]
    assert slot[0][0] == "ok"


def _poison_slot(k):
    return lambda m, w: w.region.device.poison(w.offset + k * w.size + 3)


def _map_another_region(m, w):
    m.address_map.add_region(Region(
        base=m.global_base + (1 << 38), size=4096,
        device=PhysicalMemory(4096, MemoryKind.GLOBAL), owner=None))


class _Held(NamedTuple):
    single_loads: int  # single ops a load batch on slots _IDX issues
    single_stores: int  # ... and a store batch
    error: Optional[str] = None  # what the load batch raises
    store_error: Optional[str] = None
    prepare: Callable = lambda m, w: None
    faults: Optional[FaultModel] = None
    owner: Optional[int] = None  # the window's region: global, or a node's local memory
    size: int = 8  # access size (the window's slots are 8 bytes)
    idx: tuple = (4, 1, 7, 1, 9, 4, 4)


#: Every batch a held window hands to the loop of single ops (DESIGN.md §10),
#: with the count of single ops issued, then the ones it keeps.
_HELD = {
    "dead_node": _Held(1, 1, "NodeCrashedError", "NodeCrashedError",
                       prepare=lambda m, w: m.crash_node(0)),
    "armed_fault": _Held(7, 7, faults=FaultModel(global_ce_rate=0.2, local_ce_rate=0.2)),
    # loads raise at the first op on slot 7 (index 2); stores clear poison per op
    "poison_in_the_batch": _Held(3, 7, "UncorrectableMemoryError", prepare=_poison_slot(7)),
    "poison_elsewhere_in_the_window": _Held(7, 7, prepare=_poison_slot(30)),
    "node_local_window_from_another_node": _Held(1, 1, "ProtectionError", "ProtectionError",
                                                 owner=1),
    "size_other_than_the_slot_size": _Held(7, 7, size=4),
    "empty_batch": _Held(0, 0, idx=()),
    "clean": _Held(0, 0),
    "clean_node_local": _Held(0, 0, owner=0),
    "poison_outside_the_window": _Held(
        0, 0, prepare=lambda m, w: w.region.device.poison(w.offset + w.n * w.size)),
    "region_mapped_between_two_batches": _Held(0, 0, prepare=_map_another_region),
}


@pytest.mark.parametrize("name", _HELD)
def test_held_window_or_the_loop(name):
    """The held window's refusals, counted: each replays as the loop of
    single ops with the same ops reached, outcome and state; a clean window
    issues none — also right after the address map's generation moved."""
    row = _HELD[name]
    for op, n_singles, error in (("load", row.single_loads, row.error),
                                 ("store", row.single_stores, row.store_error)):
        def prepare(m):
            window = _window(m, 32, 8, row.owner)
            _slot_call(m, window, "store", range(32), 5, True, node=row.owner or 0)
            row.prepare(m, window)
            return window

        def issue(slot_form):
            return lambda m, w: _slot_call(m, w, op, row.idx, 11, slot_form, size=row.size)

        singles, slot = _watched(prepare, issue(True), row.faults)
        looped, loop = _watched(prepare, issue(False), row.faults)
        assert slot == loop, op
        assert len(singles) == n_singles and singles == (looped if n_singles else []), op
        assert slot[0][0] == (error or "ok"), op
        if row.faults is not None:
            assert slot[4]["faults"]  # the armed model did fire


def test_moved_address_map_re_resolves_the_held_window():
    m = RackMachine(_config(0))
    window = _window(m, 16, 64)
    generation, slots = window.generation, window.slots
    _map_another_region(m, window)
    m.store_many(0, window.at([3, 3]), _payload(1, 2, 64).reshape(-1), size=64, bypass_cache=True)
    assert window.generation == m.address_map.generation == generation + 1
    assert window.slots is not slots and window.slots.tobytes() == slots.tobytes()
    assert m.load(0, window.base + 3 * 64, 64, bypass_cache=True) == _payload(1, 2, 64)[1].tobytes()


def test_unmapped_window_is_the_loop_that_raises():
    m = RackMachine(_config(0))
    window = SlotWindow(m.address_map, m.global_base + GSIZE - 64, 16, 8)  # runs off the pool
    assert window.region is None
    with pytest.raises(MemoryError_):
        m.load_many(0, window.at([0, 15]), 8, bypass_cache=True)
    assert m.now(0) > 0  # slot 0 is mapped: the loop got through it first


@pytest.mark.parametrize("bad", [32, -1, 1 << 40, -(1 << 40)])
def test_slot_index_outside_the_window_is_an_index_error(bad):
    """numpy would wrap -1 to the window's last slot and read past a short
    table only when it is the device's end: refused before any op is issued."""
    m = RackMachine(_config(0))
    window = _window(m, 32, 8)
    _slot_call(m, window, "store", range(32), 5, True)
    before = _state(m)
    with pytest.raises(IndexError):
        m.load_many(0, window.at([0, bad, 1]), 8, bypass_cache=True)
    with pytest.raises(IndexError):
        m.store_many(0, window.at([bad]), b"\xff" * 8, size=8, bypass_cache=True)
    assert _state(m) == before
    with pytest.raises(ValueError):
        window.at([[0, 1], [2, 3]])


@pytest.mark.parametrize("n, size", [(0, 8), (-4, 8), (4, 0), (-4, -64)])
def test_slot_window_refuses_an_empty_or_negative_shape(n, size):
    m = RackMachine(_config(0))
    with pytest.raises(ValueError, match="slot window"):
        SlotWindow(m.address_map, m.global_base, n, size)


def test_held_window_and_addresses_agree_on_one_batch():
    """The two ways to obtain a plan, on the same slots: same bytes back,
    same bytes stored, same clock, same everything else."""
    ma, mb = _pair(0)
    idx = [9, 2, 9, 30, 0, 2, 9]
    packed = _payload(3, len(idx), 64).reshape(-1)
    out = []
    for m, held in ((ma, True), (mb, False)):
        window = _window(m, 32, 64)
        addrs = window.at(idx).addrs()
        assert addrs.tolist() == [window.base + i * 64 for i in idx]
        batch = window.at(idx) if held else addrs
        m.store_many(0, batch, packed, size=64, bypass_cache=True)
        out.append(m.load_many(0, batch, 64, bypass_cache=True))
    assert out[0] == out[1] and out[0][0] == out[0][2] == packed[6 * 64 :].tobytes()
    assert _state(ma) == _state(mb)


@pytest.mark.parametrize("n", [1, 2, 4095, 4096, 10_000])
def test_reused_fold_buffer_is_the_fresh_left_fold(n, monkeypatch):
    """The charge's batch fold in the module's reused buffer (regrown past
    4,096 ops) is ``np.full`` + ``np.add.accumulate``, float for float."""
    monkeypatch.setattr(machine_module, "_fold", np.empty(4_097, dtype=np.float64))
    m = RackMachine(_config(0))
    ns, start = 340.0 + 1.0 / 3.0, 2439678.6666666665
    for _ in range(2):  # the second call folds over the first call's leftovers
        m.nodes[0].clock._now_ns = start
        m._charge(m.nodes[0], 1, ns, ops=n)
        fresh = np.full(n + 1, ns, dtype=np.float64)
        fresh[0] = start
        assert m.now(0) == float(np.add.accumulate(fresh)[-1])
    if n <= 2:
        assert m.now(0) == sum([ns] * n, start)


def test_empty_slot_batch_leaves_no_trace():
    telemetry.reset()
    telemetry.enable()
    try:
        m = RackMachine(_config(0))
        window = _window(m, 4, 8)
        m.store_many(0, window.at([]), b"", size=8, bypass_cache=True)
        assert m.load_many(0, window.at([]), 8, bypass_cache=True, concat=True) == b""
        assert not telemetry.TELEMETRY.registry.counters and m.now(0) == 0.0
    finally:
        telemetry.disable()
        telemetry.reset()
