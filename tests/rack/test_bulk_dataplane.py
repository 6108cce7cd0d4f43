"""Path selection of the bulk data plane: which batches run as one window.

A batch either vectorizes — one clean window, no single op issued — or
replays as the loop of single ops it stands for.  The tables below count
the single ops each batch reaches (not time) for every reason DESIGN.md
§10 gives, against the loop on a twin machine with every sink on.  That
the loop's results are the contract's is the reference rack's job
(``tests/reference``), which drives the same batches step by step.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest

from repro import telemetry
from repro.rack import InterconnectError, NodeCrashedError, RackConfig, RackMachine
from repro.rack.clock import fold_adds
from repro.rack.machine import SlotWindow
from repro.rack.memory import MemoryError_
from repro.rack.params import FaultModel

LINE = 64
GSIZE = 1 << 16
LSIZE = 1 << 16


def _config(faults: FaultModel = None) -> RackConfig:
    # caches small enough that batches force evictions
    return RackConfig(n_nodes=2, local_mem_size=LSIZE, global_mem_size=GSIZE, cache_lines=64,
                      faults=faults or FaultModel(), seed=0)


def _state(m: RackMachine) -> dict:
    """Every observable of a machine, snapshot for equality checks."""
    out = {}
    for nid, node in m.nodes.items():
        # insertion order == LRU order
        out[f"cache{nid}"] = [(base, bytes(line.data), line.dirty) for base, line in node.cache._lines.items()]
        out[f"stats{nid}"] = dataclasses.astuple(node.cache.stats)
        out[f"clock{nid}"] = node.clock.now_ns
        out[f"local{nid}"] = bytes(node.local_mem._buf), sorted(node.local_mem.poisoned)
    out["gmem"] = bytes(m.global_mem._buf), sorted(m.global_mem.poisoned)
    out["faults"] = [(e.kind.value, e.addr, e.node_id, e.time_ns) for e in m.faults.log.events()]
    out["rng"] = m.faults.rng.getstate()
    return out


#: the single ops a batch may reach, counted
_SINGLES = ("load", "store", "atomic_load", "atomic_store")
#: the address-form entry points of the bulk plane (the vector store is the slot form)
_KINDS = ("load", "atomic_load", "atomic_store")


def _issue(m, kind, batch, value, width, bulk):
    """One node-0 batch through entry point ``kind``: its bulk form, or the
    loop of single ops it stands for.  ``value`` is the atomic stores'
    broadcast operand.  Atomics act on 8-byte words whatever ``width``
    loads are issued at."""
    if kind == "load":
        if bulk:
            return m.load_many(0, batch, width, bypass_cache=True)
        return [m.load(0, a, width, bypass_cache=True) for a in batch]
    if kind == "atomic_load":
        if bulk:
            return m.atomic_load_many(0, batch)
        return [m.atomic_load(0, a) for a in batch]
    if bulk:
        return m.atomic_store_many(0, batch, value)
    for a in batch:
        m.atomic_store(0, a, value)


def _watched(prepare, issue, faults=None):
    """``issue(m, prepare(m))`` on a fresh machine with every sink on.
    Returns the ``(op, address)`` of every single op ``issue`` reached and
    everything it left behind: (outcome, registry counters, page sketch,
    line sketch, machine state)."""
    from repro.telemetry.atlas import enable_atlas

    singles = []
    real = {op: getattr(RackMachine, op) for op in _SINGLES}

    def counted(op):
        return lambda self, *a, **kw: (singles.append((op, a[1])), real[op](self, *a, **kw))[1]

    telemetry.reset()
    telemetry.enable()
    try:
        m = RackMachine(_config(faults))
        atlas = enable_atlas(m)
        prepared = prepare(m)
        for op in _SINGLES:
            setattr(RackMachine, op, counted(op))
        try:
            outcome = ("ok", issue(m, prepared))
        except (MemoryError_, ValueError, TypeError, NodeCrashedError, InterconnectError) as e:
            outcome = (type(e).__name__, str(e))
        counters = dict(telemetry.TELEMETRY.registry.counters)
        return singles, (outcome, counters, atlas.hot_pages(), atlas.pages.total, _state(m))
    finally:
        for op in _SINGLES:
            setattr(RackMachine, op, real[op])
        telemetry.TELEMETRY.atlas = None
        telemetry.disable()
        telemetry.reset()


def _words(*slots):
    return lambda m: [m.global_base + 8 * i for i in slots]


_ATOMIC = ("atomic_load", "atomic_store")


class _Row(NamedTuple):
    kinds: tuple  # entry points the row applies to
    addrs: Callable  # machine -> batch addresses
    prepare: Callable = lambda m: None
    faults: Optional[FaultModel] = None
    value: object = 0x1100  # the atomic stores' broadcast operand
    loops: bool = True  # not one clean window: replays as the loop
    widths: tuple = (8,)  # access sizes loads are issued at


#: One row per reason a batch is not one clean window (DESIGN.md §10), then
#: the rows that are.
_TAXONOMY = {
    "dead_node": _Row(_KINDS, _words(*range(4)), lambda m: m.crash_node(0)),
    "multi_region": _Row(
        _KINDS, lambda m: [m.global_base, m.local_base(0) + 8, m.global_base + 16]),
    "foreign_local": _Row(
        _KINDS, lambda m: [m.global_base, m.local_base(1) + 8, m.global_base + 16]),
    "unmapped": _Row(_KINDS, lambda m: [m.global_base, m.global_base + GSIZE, m.global_base + 8]),
    "straddling": _Row(("load",), lambda m: [m.global_base, m.global_base + GSIZE - 4]),
    "armed_fault": _Row(
        _KINDS, _words(*range(64)), faults=FaultModel(global_ce_rate=0.2, local_ce_rate=0.2)),
    "poison_in_span": _Row(_KINDS, _words(*range(12)), lambda m: m.global_mem.poison(8 * 5 + 3)),
    "address_numpy_cannot_hold": _Row(
        _KINDS, lambda m: [m.global_base, 1 << 70, m.global_base + 8]),
    "value_numpy_cannot_hold": _Row(("atomic_store",), _words(0, 1, 2), value=None),  # raises at op 0
    "duplicate": _Row(_ATOMIC, _words(0, 1, 2, 1, 3)),
    "misaligned": _Row(_ATOMIC, lambda m: [m.global_base, m.global_base + 17, m.global_base + 24]),
    "issuer_cached": _Row(_ATOMIC, _words(*range(12)), lambda m: m.load(0, m.global_base + 64, 8)),
    "severed_port": _Row(("load",), _words(*range(12)), lambda m: m.sever_node_link(0)),
    "one_region_exact_duplicates": _Row(("load",), _words(0, 1, 0, 2, 0), loops=False),
    "a_fraction_of_a_slot_apart": _Row(("load",), lambda m: [m.global_base, m.global_base + 4]),
    "one_region_unique": _Row(_KINDS, _words(*range(12)), loops=False, widths=(1, 2, 4, 8)),
    "value_past_int64_broadcast": _Row(("atomic_store",), _words(*range(12)), value=(1 << 64) - 1,
                                       loops=False),
    "one_region_unique_local": _Row(
        _KINDS, lambda m: [m.local_base(0) + 8 * i for i in range(12)], loops=False),
}


@pytest.mark.parametrize("name", _TAXONOMY)
def test_one_window_or_the_loop(name):
    """Which path a batch takes, counted (not timed), for every address-form
    entry point: a batch that is not one clean window replays as the loop of
    single ops — same ops reached in the same order, same outcome, same
    state — and a batch that is one issues no single op at all."""
    row = _TAXONOMY[name]
    for kind in row.kinds:
        for width in row.widths if kind == "load" else (8,):
            def issue(bulk):
                return lambda m, batch: _issue(m, kind, batch, row.value, width, bulk)
            singles, bulk = _watched(lambda m: (row.prepare(m), row.addrs(m))[1], issue(True), row.faults)
            looped, loop = _watched(lambda m: (row.prepare(m), row.addrs(m))[1], issue(False), row.faults)
            assert bulk == loop, (kind, width)
            assert looped and singles == (looped if row.loops else []), (kind, width)


def test_atomic_store_many_shapes():
    m = RackMachine(_config())
    g = m.global_base
    m.atomic_store_many(0, [], 0)
    m.atomic_store_many(0, range(g, g + 64, 8), 7)  # any sized sequence of ints
    m.context(0).atomic_store_many([g + 64, g + 72], 2)
    assert m.atomic_load_many(0, [g, g + 56, g + 64, g + 72]) == [7, 7, 2, 2]
    with pytest.raises(ValueError, match="not 8-byte aligned"):
        m.atomic_store_many(0, [g + 4], 0)


def test_boot_formats_regions_with_batched_stores(monkeypatch):
    """Counted, not timed: a rig boot keeps its single-op atomic stores to
    header words.  The capacity-proportional format loops (5,376 of the old
    boot's 5,454 stores were operation-log commit words) go through
    ``atomic_store_many`` and must not quietly come back.  The ceiling is
    the count when written (81 single stores, 5,274 batched): one format
    loop of single stores back, and the count is far past it."""
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
    assert calls["single"] <= 81
    assert calls["batched"] > 5000


def test_load_many_concat_and_empty():
    m = RackMachine(_config())
    g = m.global_base
    m.store(0, g, bytes(range(64)), bypass_cache=True)
    addrs = [g, g + 16, g + 32]
    parts = m.load_many(0, addrs, 16, bypass_cache=True)
    packed = m.load_many(0, addrs, 16, bypass_cache=True, concat=True)
    assert b"".join(parts) == packed == bytes(range(48))
    assert m.load_many(0, [], 8) == []
    assert m.load_many(0, [], 8, concat=True) == b""
    assert m.atomic_fetch_add_many(0, [], 1) == []
    assert m.atomic_cas_many(0, [], [], []) == []
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
    loop of single ops it stands for.  A store writes rows of the table
    ``_payload(seed, n, size)``: op ``i`` writes row ``idx[i]`` into slot
    ``idx[i]``."""
    size = window.size if size is None else size
    rows = _payload(seed, window.n, size)
    if slot_form:
        if op == "load":
            return m.load_many(node, window.at(idx), size, bypass_cache=True, concat=True)
        return m.store_many(node, window.at(idx), rows.reshape(-1))
    addrs = [window.base + i * window.size for i in idx]
    if op == "load":
        return b"".join(m.load(node, a, size, bypass_cache=True) for a in addrs)
    for a, k in zip(addrs, idx):
        m.store(node, a, rows[k].tobytes(), bypass_cache=True)


def _poison_slot(k):
    return lambda m, w: w.region.device.poison(w.offset + k * w.size + 3)


class _Held(NamedTuple):
    single_loads: int  # single ops a load batch on slots _IDX issues
    single_stores: int  # ... and a store batch
    error: Optional[str] = None  # what the load batch raises
    store_error: Optional[str] = None  # "ValueError": refused before any op
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
    # each op's charge raises: at op 0, before its write
    "severed_port": _Held(1, 1, "InterconnectError", "InterconnectError",
                          prepare=lambda m, w: m.sever_node_link(0)),
    # a load replays as the loop; a store's table of 4-byte rows is refused
    "size_other_than_the_slot_size": _Held(7, 0, store_error="ValueError", size=4),
    "empty_batch": _Held(0, 0, idx=()),
    "clean": _Held(0, 0),
    "clean_node_local": _Held(0, 0, owner=0),
    "poison_outside_the_window": _Held(
        0, 0, prepare=lambda m, w: w.region.device.poison(w.offset + w.n * w.size)),
}


@pytest.mark.parametrize("name", _HELD)
def test_held_window_or_the_loop(name):
    """The held window's refusals, counted: each replays as the loop of
    single ops with the same ops reached, outcome and state; a clean window
    issues none.  A refused store issues nothing and leaves everything as
    it was."""
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

        refused = error == "ValueError"
        singles, slot = _watched(prepare, issue(True), row.faults)
        looped, loop = _watched(prepare, (lambda m, w: None) if refused else issue(False), row.faults)
        assert slot[1:] == loop[1:] and (refused or slot == loop), op
        assert len(singles) == n_singles and singles == (looped if n_singles else []), op
        assert slot[0][0] == (error or "ok"), op
        if row.faults is not None:
            assert slot[4]["faults"]  # the armed model did fire


def test_unmapped_window_is_the_loop_that_raises():
    m = RackMachine(_config())
    window = SlotWindow(m.address_map, m.global_base + GSIZE - 64, 16, 8)  # runs off the pool
    assert window.region is None
    with pytest.raises(MemoryError_):
        m.load_many(0, window.at([0, 15]), 8, bypass_cache=True)
    assert m.now(0) > 0  # slot 0 is mapped: the loop got through it first


@pytest.mark.parametrize("bad", [32, -1, 1 << 40, -(1 << 40)])
def test_slot_index_outside_the_window_is_an_index_error(bad):
    """numpy would wrap -1 to the window's last slot and read past a short
    table only when it is the device's end: refused before any op is issued."""
    m = RackMachine(_config())
    window = _window(m, 32, 8)
    _slot_call(m, window, "store", range(32), 5, True)
    before = _state(m)
    with pytest.raises(IndexError):
        m.load_many(0, window.at([0, bad, 1]), 8, bypass_cache=True)
    with pytest.raises(IndexError):
        m.store_many(0, window.at([bad]), b"\xff" * 256)
    assert _state(m) == before
    with pytest.raises(ValueError):
        window.at([[0, 1], [2, 3]])


@pytest.mark.parametrize("table", [
    bytes(255), bytes(264),  # one byte short, one row long
    bytes(16),               # the batch's rows packed
    bytes(128),              # a table of 4-byte rows
])
def test_a_slot_store_of_anything_but_the_row_table_is_refused(table):
    """A slot-form store takes the window's whole row table at its slot
    size: anything else is a ``ValueError`` before any op."""
    m = RackMachine(_config())
    window = _window(m, 32, 8)
    _slot_call(m, window, "store", range(32), 5, True)
    before = _state(m)
    with pytest.raises(ValueError, match="row table"):
        m.store_many(0, window.at([0, 3]), table)
    assert _state(m) == before


@pytest.mark.parametrize("n, size", [(0, 8), (-4, 8), (4, 0), (-4, -64)])
def test_slot_window_refuses_an_empty_or_negative_shape(n, size):
    m = RackMachine(_config())
    with pytest.raises(ValueError, match="slot window"):
        SlotWindow(m.address_map, m.global_base, n, size)


@pytest.mark.parametrize("n", [1, 2, 3, 22, 47, 48, 49, 4095, 4096, 10_000])
def test_reused_fold_buffer_is_the_fresh_left_fold(n):
    """The batch charge's fold (:func:`fold_adds`, which replaced the
    reused numpy buffer) is ``np.full`` + ``np.add.accumulate`` and ``n``
    single charges, float for float, at charges and clocks where rounding
    moves the sum."""
    m = RackMachine(_config())
    node = m.nodes[0]
    for ns, start in ((340.0 + 1.0 / 3.0, 2439678.6666666665), (1.0 / 3.0, 2.0 ** 40 + 0.1)):
        folded = fold_adds(start, ns, n)
        fresh = np.full(n + 1, ns, dtype=np.float64)
        fresh[0] = start
        assert folded == float(np.add.accumulate(fresh)[-1])
        node.clock._now_ns = start
        for _ in range(n):
            m._charge(node, 1, ns)
        assert m.now(0) == folded
        if n > 1:  # the order of the adds is observable here
            assert folded != start + n * ns


def test_empty_slot_batch_leaves_no_trace():
    telemetry.reset()
    telemetry.enable()
    try:
        m = RackMachine(_config())
        window = _window(m, 4, 8)
        m.store_many(0, window.at([]), bytes(32))
        assert m.load_many(0, window.at([]), 8, bypass_cache=True, concat=True) == b""
        assert not telemetry.TELEMETRY.registry.counters and m.now(0) == 0.0
    finally:
        telemetry.disable()
        telemetry.reset()
