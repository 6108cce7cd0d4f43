"""The rack machine: the facade every layer above talks to.

A :class:`RackMachine` owns the nodes, the global memory, the fabric, the
fault injector, and the latency accounting.  All software in this
repository — FlacDK, the FlacOS kernel, the applications — touches rack
memory exclusively through this class (usually via a bound
:class:`NodeContext`), so the substrate's incoherence and latency rules
apply uniformly.

Hardware contract reproduced from the paper (§2.1):

* plain loads/stores go through the issuing node's private cache and are
  **not** coherent across nodes;
* atomic instructions bypass caches and are serialised rack-wide (the
  libfam-atomic model), working on global memory and the node's own
  local memory;
* cache maintenance (flush / invalidate / write-back-invalidate) is
  explicit and per-address-range.
"""

from __future__ import annotations

import struct
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .cache import NodeCache
from .faults import FaultInjector
from .interconnect import Interconnect, node_vertex
from .memory import (
    AddressMap,
    MemoryKind,
    MemoryError_,
    PhysicalMemory,
    ProtectionError,
    Region,
    UncorrectableMemoryError,
    build_address_map,
)
from .node import Node
from .params import GLOBAL_BASE, LOCAL_STRIDE, RackConfig
from . import topology as topo
from ..telemetry import TELEMETRY as _TEL


#: Atomic widths: (precompiled little-endian codec, wrap mask) per byte width.
_INT = {
    width: (struct.Struct(fmt), (1 << (8 * width)) - 1)
    for width, fmt in ((1, "<B"), (2, "<H"), (4, "<I"), (8, "<Q"))
}
_INT_DTYPE = {1: "<u1", 2: "<u2", 4: "<u4", 8: "<u8"}

#: Telemetry subsystem for the data plane (metric naming convention:
#: DESIGN.md §8); each op kind records in one place (DESIGN.md §3).
_SUB = "rack.machine"

#: What a node's TLB slot reads as before its first resolve: covers nothing.
_TLB_EMPTY = (0, 0, None)
#: The batch clock fold of :meth:`RackMachine._charge`, reused across
#: batches and regrown for one that would not fit.
_fold = np.empty(4_097, dtype=np.float64)


class SlotRef:
    """Slots ``idx`` of ``window``: made by :meth:`SlotWindow.at`, accepted
    wherever ``load_many`` / ``store_many`` take addresses."""

    __slots__ = ("window", "idx")

    def __len__(self) -> int:
        return len(self.idx)

    def addrs(self) -> np.ndarray:
        """Physical addresses, for the loop of single ops and the atlas."""
        return self.window.base + self.idx * self.window.size


class SlotWindow:
    """``n`` consecutive ``size``-byte slots at physical ``base``, resolved
    once per ``AddressMap.generation`` to ``region``, device ``offset`` and
    ``slots`` (:func:`_slots` of exactly those bytes); ``region`` is ``None``
    while the span is not one mapped window.  ``stamp`` is the scatter's
    last-writer scratch, all -1 between calls.  (DESIGN.md §10)"""

    __slots__ = ("address_map", "base", "n", "size", "stamp",
                 "generation", "region", "offset", "slots")

    def __init__(self, address_map: AddressMap, base: int, n: int, size: int) -> None:
        if n < 1 or size < 1:
            raise ValueError(f"a slot window needs n >= 1 and size >= 1, got n={n} size={size}")
        self.address_map, self.base, self.n, self.size = address_map, base, n, size
        self.stamp = np.full(n, -1, dtype=np.int64)
        self.resolve()

    def resolve(self) -> None:
        amap, span = self.address_map, self.n * self.size
        self.generation = amap.generation
        try:
            self.region, self.offset = amap.resolve(self.base, span)
            self.slots = _slots(self.region.device, self.offset, span, self.size)
        except MemoryError_:
            self.region = self.offset = self.slots = None

    def at(self, idx) -> SlotRef:
        """A reference to slots ``idx`` (one int64 vector, repeats allowed).
        numpy would wrap a negative index into the window's last slots, so
        the bounds check is the *unsigned* maximum: an index outside
        ``[0, n)`` is an ``IndexError`` here, before any op is issued."""
        ref = SlotRef()
        ref.window = self
        ref.idx = idx = np.asarray(idx, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("slot indices must be one vector")
        if len(idx) and int(idx.view(np.uint64).max()) >= self.n:
            raise IndexError(f"slot index outside window of {self.n} slots at {self.base:#x}")
        return ref


class RackMachine:
    """A simulated memory-interconnected rack."""

    def __init__(self, config: Optional[RackConfig] = None) -> None:
        self.config = config or RackConfig()
        cfg = self.config
        gmem_kind = MemoryKind.PMEM if cfg.global_kind == "pmem" else MemoryKind.GLOBAL
        self.global_mem = PhysicalMemory(cfg.global_mem_size, gmem_kind, "gmem")
        self.nodes: Dict[int, Node] = {}
        local_devices: Dict[int, PhysicalMemory] = {}
        for node_id in range(cfg.n_nodes):
            dev = PhysicalMemory(cfg.local_mem_size, MemoryKind.LOCAL_DRAM, f"local{node_id}")
            local_devices[node_id] = dev
            cache = NodeCache(
                cfg.cache_lines,
                cfg.cache_line_size,
                read_backing=partial(self._read_backing, node_id),
                write_backing=self._write_backing,
            )
            self.nodes[node_id] = Node(node_id, cfg.cores_per_node, dev, cache)
        self.address_map: AddressMap = build_address_map(local_devices, self.global_mem)
        self.fabric: Interconnect = topo.build(cfg.topology, cfg.n_nodes)
        self.faults = FaultInjector(cfg.faults, seed=cfg.seed)
        self.latency = cfg.latency
        self.line_size = cfg.cache_line_size
        # -- data-plane state (see DESIGN.md §3) ----------------------------
        self._line_mask = cfg.cache_line_size - 1
        # Software TLB: per-node memo of the last region resolved, dropped
        # when the address map's generation moves.
        self._tlb: Dict[int, Tuple[int, int, Region]] = {}
        self._tlb_gen = self.address_map.generation
        # (region, clean) from the gate of the op now calling a node's cache:
        # its backing reader and writer act under it instead of gating again.
        self._verdict: Tuple[Region, bool] = (self.address_map.regions[-1], False)
        # Charge table: (first_line_ns, rest_line_ns) per (node, region),
        # dropped when the fabric's generation moves (link/topology change).
        self._charge_memo: Dict[Tuple[int, int], Tuple[float, float]] = {}
        self._charge_gen = self.fabric.generation
        # -- self-healing hook (see flacdk.reliability.repair) --------------
        # When set, a poisoned access invokes the handler instead of raising
        # immediately; the access retries (bounded, with backoff) after a
        # claimed repair.  The reentrancy guard keeps the handler's own
        # memory traffic from recursing into another repair.
        self._repair_handler: Optional[Callable[[int, int], bool]] = None
        self._in_repair = False
        self.repair_max_retries = 3
        self.repair_backoff_ns = 500.0
        # -- crash hooks (flight recorder et al.) ---------------------------
        # Called as hook(node_id, now_ns) *after* the node is dead and the
        # crash is in the fault log, so observers see the final state.
        self._crash_hooks: List[Callable[[int, float], None]] = []

    # -- address helpers -------------------------------------------------------

    @property
    def global_base(self) -> int:
        return GLOBAL_BASE

    @property
    def global_size(self) -> int:
        return self.global_mem.size

    def local_base(self, node_id: int) -> int:
        self._node(node_id)
        return node_id * LOCAL_STRIDE

    def local_size(self, node_id: int) -> int:
        return self._node(node_id).local_mem.size

    def is_global_addr(self, addr: int) -> bool:
        return addr >= GLOBAL_BASE

    def context(self, node_id: int) -> "NodeContext":
        """A view of the machine bound to one node (the common handle)."""
        self._node(node_id)
        return NodeContext(self, node_id)

    # -- time -------------------------------------------------------------------

    def now(self, node_id: int) -> float:
        return self._node(node_id).clock.now_ns

    def advance(self, node_id: int, ns: float) -> float:
        """Charge computation time unrelated to memory (software overhead)."""
        return self._node(node_id).clock.advance(ns)

    def max_time(self) -> float:
        return max(n.clock.now_ns for n in self.nodes.values())

    # -- data path ----------------------------------------------------------------

    def load(self, node_id: int, addr: int, size: int, *, bypass_cache: bool = False) -> bytes:
        """Read ``size`` bytes at physical ``addr`` through the node's cache."""
        return self._plain(node_id, addr, size, None, bypass_cache)

    def store(
        self, node_id: int, addr: int, data: bytes, *, bypass_cache: bool = False
    ) -> None:
        """Write ``data`` at physical ``addr``.

        Cached stores dirty the node's cache and reach backing memory only
        on flush/eviction; ``bypass_cache`` models non-temporal stores
        that go straight to the device (still leaving any stale cached
        copy in place — callers must invalidate if they mix modes).
        """
        self._plain(node_id, addr, len(data), data, bypass_cache)

    def _plain(
        self, node_id: int, addr: int, size: int, data: Optional[bytes], bypass: bool
    ) -> Optional[bytes]:
        """One plain load (``data is None``) or store: the gate, then the
        node's cache — which answers a hit — or, ``bypass``, the device.

        Its record is the atlas touch right after the gate (an op that
        raises later, on poison, has touched) and the counters once the
        op has completed; the cached charge comes after both."""
        node, region, offset, clean = self._access(node_id, addr, size)
        if _TEL.atlas is not None:
            _TEL.atlas.touch(addr, size)
        loading = data is None
        if bypass:
            self._charge(node, 0, 0.0, region, -(-size // self.line_size) or 1)
            device = region.device
            if not clean:
                self._maybe_fault(region, offset, size, node_id)
                if loading:
                    self._check_poison(region, offset, size, node_id)
                else:
                    device.clear_poison(offset, size)
            if loading:
                data = device.read(offset, size)
            else:
                device.write(offset, data)
        else:
            self._verdict = region, clean  # what the cache's fills act under
            if loading:
                data, hits, misses = node.cache.load(addr, size)
            else:
                hits, misses, allocs = node.cache.store(addr, data)
                hits += allocs  # full-line allocations never fetch: charged like hits
        if _TEL.enabled:
            if bypass:
                _TEL.count(node_id, _SUB, "bypass.load" if loading else "bypass.store")
            else:
                if hits:
                    _TEL.count(node_id, _SUB, "cache.hit", hits)
                if misses:
                    _TEL.count(node_id, _SUB, "cache.miss", misses)
                    if region.owner is None:
                        _TEL.count(node_id, _SUB, "cache.remote_fetch", misses)
        if not bypass:
            lat = self.latency
            self._charge(node, hits, lat.cache_hit_ns, region, misses, lat.cache_miss_overhead_ns)
        return data if loading else None

    # -- atomics ---------------------------------------------------------------------

    def atomic_cas(
        self, node_id: int, addr: int, expected: int, new: int, width: int = 8
    ) -> Tuple[bool, int]:
        """Compare-and-swap directly on backing memory.

        Returns ``(swapped, observed_value)``.  The issuing node's cached
        copy of the line is invalidated so subsequent cached loads observe
        the device value.
        """
        slab, offset, codec, mask = self._atomic_prologue(node_id, addr, width)
        current = codec.unpack_from(slab, offset)[0]
        swapped = current == expected
        if swapped:
            codec.pack_into(slab, offset, new & mask)
        return swapped, current

    def atomic_fetch_add(self, node_id: int, addr: int, delta: int, width: int = 8) -> int:
        """Atomically add ``delta`` (wrapping); returns the *old* value."""
        slab, offset, codec, mask = self._atomic_prologue(node_id, addr, width)
        current = codec.unpack_from(slab, offset)[0]
        codec.pack_into(slab, offset, (current + delta) & mask)
        return current

    def atomic_swap(self, node_id: int, addr: int, new: int, width: int = 8) -> int:
        """Atomically exchange; returns the old value."""
        slab, offset, codec, mask = self._atomic_prologue(node_id, addr, width)
        current = codec.unpack_from(slab, offset)[0]
        codec.pack_into(slab, offset, new & mask)
        return current

    def atomic_load(self, node_id: int, addr: int, width: int = 8) -> int:
        """Coherent (cache-bypassing) integer load."""
        slab, offset, codec, _ = self._atomic_prologue(node_id, addr, width)
        return codec.unpack_from(slab, offset)[0]

    def atomic_store(self, node_id: int, addr: int, value: int, width: int = 8) -> None:
        """Coherent (cache-bypassing) integer store."""
        slab, offset, codec, mask = self._atomic_prologue(node_id, addr, width)
        codec.pack_into(slab, offset, value & mask)

    # -- bulk data plane (DESIGN.md §10) -----------------------------------------------
    #
    # Every bulk API *is* a loop of single ops: returned bytes, charged
    # simulated ns, cache state, fault-log contents and telemetry
    # counters are those of issuing each access alone.  The entry points
    # with traffic — bypass ``load_many``, packed bypass ``store_many`` on a
    # held :class:`SlotWindow`, ``atomic_load_many`` / ``atomic_store_many``
    # — amortise host CPU when :meth:`_bulk_plan` finds the batch to be
    # slots of one clean window: one gather/scatter of slots, one uniform
    # charge vector (``np.add.accumulate`` is a strict left fold, so the
    # float rounding matches the sequential clock adds) and one aggregated
    # telemetry record.  Everything else, and every batch the plan refuses,
    # is the loop itself, which reproduces every observable including the
    # op index at which an error surfaces.

    def load_many(
        self,
        node_id: int,
        addrs: Sequence[int],
        size: int,
        *,
        bypass_cache: bool = False,
        concat: bool = False,
    ) -> Union[List[bytes], bytes]:
        """Read ``size`` bytes at each address (scatter-gather read).

        Returns one ``bytes`` per address, or a single packed buffer
        when ``concat`` is true.  Equivalent to a loop of :meth:`load`;
        a bypass batch that is one clean window is one gather.
        ``addrs`` may be an int64 array (used as is, no list round trip)
        or a :class:`SlotRef` into a held window (nothing to resolve).
        """
        n = len(addrs)
        if n == 0:
            return b"" if concat else []
        plan = self._bulk_plan(node_id, addrs, size) if bypass_cache else None
        if plan is None:
            parts = [
                self.load(node_id, a, size, bypass_cache=bypass_cache) for a in _ints(addrs)
            ]
            return b"".join(parts) if concat else parts
        region, slots, idx = plan
        buf = slots.take(idx).tobytes()
        self._bulk_epilogue(node_id, addrs, size, region, "bypass.load")
        return buf if concat else _split(buf, size)

    def store_many(
        self,
        node_id: int,
        addrs: Sequence[int],
        data: Union[Sequence[bytes], bytes],
        *,
        bypass_cache: bool = False,
        size: Optional[int] = None,
    ) -> None:
        """Write ``data[i]`` at ``addrs[i]`` (scatter write).

        ``data`` is one payload per address, or — when ``size`` is given
        — a single packed buffer of ``len(addrs) * size`` bytes (``bytes``
        or a flat uint8 array, e.g. ``rows.reshape(-1)``; the
        write-side twin of ``load_many(..., concat=True)``).  Equivalent
        to a loop of :meth:`store`; a packed bypass batch on a
        :class:`SlotRef` whose window is clean is one scatter.  Per-payload
        batches need not share one size.
        """
        n = len(addrs)
        if size is None:
            if len(data) != n:
                raise ValueError(f"store_many got {n} addresses but {len(data)} payloads")
        else:
            if size <= 0:
                raise ValueError("packed store_many needs a positive size")
            if len(data) != n * size:
                raise ValueError(
                    f"store_many got {n} addresses but a packed buffer of "
                    f"{len(data)} bytes (need {n * size})"
                )
            held = bypass_cache and type(addrs) is SlotRef
            if held and self._bulk_bypass_store(node_id, addrs, data, size):
                return
            data = _split(bytes(data), size)
        for a, d in zip(_ints(addrs), data):
            self.store(node_id, a, d, bypass_cache=bypass_cache)

    def copy(
        self, node_id: int, dst: int, src: int, size: int, *, bypass_cache: bool = False
    ) -> None:
        """Copy ``size`` bytes from ``src`` to ``dst`` through the node:
        ``store(dst, load(src, size))``."""
        if size <= 0:
            return
        data = self.load(node_id, src, size, bypass_cache=bypass_cache)
        self.store(node_id, dst, data, bypass_cache=bypass_cache)

    def fill(
        self, node_id: int, addr: int, size: int, value: int, *, bypass_cache: bool = False
    ) -> None:
        """Set ``size`` bytes at ``addr`` to ``value`` (memset):
        ``store(addr, bytes([value]) * size)``."""
        if size <= 0:
            return
        self.store(node_id, addr, bytes([value & 0xFF]) * size, bypass_cache=bypass_cache)

    def atomic_fetch_add_many(
        self,
        node_id: int,
        addrs: Sequence[int],
        deltas: Union[int, Sequence[int]] = 1,
        width: int = 8,
    ) -> List[int]:
        """Batched :meth:`atomic_fetch_add`; returns the old values.

        ``deltas`` may be one int (broadcast) or a parallel sequence.
        """
        n = len(addrs)
        if isinstance(deltas, int):
            deltas = [deltas] * n
        elif len(deltas) != n:
            raise ValueError(f"{n} addresses but {len(deltas)} deltas")
        return [self.atomic_fetch_add(node_id, a, d, width) for a, d in zip(addrs, deltas)]

    def atomic_load_many(
        self, node_id: int, addrs: Sequence[int], width: int = 8
    ) -> List[int]:
        """Batched :meth:`atomic_load` (coherent scatter-gather read).

        One gather when :meth:`_bulk_atomic_plan` accepts the batch —
        identical observables to a loop of single ``atomic_load`` calls,
        which is what a refused batch (duplicates, cached lines, armed
        faults, ...) is issued as.
        """
        if len(addrs) == 0:
            return []
        plan = self._bulk_atomic_plan(node_id, addrs, width)
        if plan is None:
            return [self.atomic_load(node_id, a, width) for a in addrs]
        region, slots, idx = plan
        out = slots.take(idx).view(_INT_DTYPE[width]).tolist()
        self._bulk_epilogue(node_id, addrs, width, region)
        return out

    def atomic_store_many(
        self,
        node_id: int,
        addrs: Sequence[int],
        values: Union[int, Sequence[int]],
        width: int = 8,
    ) -> None:
        """Batched :meth:`atomic_store` (coherent scatter write).

        ``values`` may be one int (broadcast — the shape of every region
        format loop) or a parallel sequence.  Same plan, fallbacks and
        epilogue as :meth:`atomic_load_many`; a batch the plan rejects
        is issued as the loop of single stores it stands for.
        """
        n = len(addrs)
        if n == 0:
            return
        scalar = isinstance(values, int)
        if not scalar and len(values) != n:
            raise ValueError(f"{n} addresses but {len(values)} values")
        plan = self._bulk_atomic_plan(node_id, addrs, width)
        if plan is not None:
            mask = _INT[width][1]
            dtype = _INT_DTYPE[width]
            try:
                # masked in Python: sentinels like 2**64 - 1 overflow int64
                if scalar:
                    v_arr = np.full(n, values & mask, dtype=dtype)
                else:
                    v_arr = np.array([v & mask for v in values], dtype=dtype)
            except TypeError:
                plan = None  # the single op raises at that value's index
        if plan is None:
            for a, v in zip(addrs, [values] * n if scalar else values):
                self.atomic_store(node_id, a, v, width)
            return
        region, slots, idx = plan
        slots[idx] = v_arr.view(slots.dtype)  # the plan proved idx unique
        self._bulk_epilogue(node_id, addrs, width, region)

    def atomic_cas_many(
        self,
        node_id: int,
        addrs: Sequence[int],
        expected: Sequence[int],
        new: Sequence[int],
        width: int = 8,
    ) -> List[Tuple[bool, int]]:
        """Batched :meth:`atomic_cas`; returns ``(swapped, observed)`` pairs."""
        if len(expected) != len(addrs) or len(new) != len(addrs):
            raise ValueError("atomic_cas_many needs parallel addrs/expected/new")
        return [
            self.atomic_cas(node_id, a, e, v, width) for a, e, v in zip(addrs, expected, new)
        ]

    # -- cache maintenance -------------------------------------------------------------

    def flush(self, node_id: int, addr: int, size: int) -> int:
        """Write back dirty lines (``dc cvac``); returns lines written."""
        return self._write_back(node_id, addr, size, False)[0]

    def invalidate(self, node_id: int, addr: int, size: int) -> int:
        """Drop cached lines without write-back (``dc ivac``)."""
        node = self._live(node_id)
        dropped = node.cache.invalidate(addr, size)
        self._charge(node, dropped, self.latency.invalidate_line_ns)
        return dropped

    def flush_invalidate(self, node_id: int, addr: int, size: int) -> Tuple[int, int]:
        """Write back then drop (``dc civac``)."""
        return self._write_back(node_id, addr, size, True)

    def flush_all(self, node_id: int) -> int:
        """Write back every dirty line in the node's cache (context-switch
        and migration path).  Charged as a DRAM global-memory write burst
        whatever the victims' media — conservative when some are local,
        cheap when the pool is PMEM (DESIGN.md §3)."""
        node = self._live(node_id)
        written = node.cache.flush_all()
        if written:
            lat = self.latency
            cost = self.fabric.path_to_gmem(node_id)
            first = lat.device_ns(is_global=True, hops=cost.hops, switches=cost.switches)
            rest = (written - 1) * lat.pipelined_line_ns(self.line_size, is_global=True)
            self._charge(node, 1, first + rest + written * lat.writeback_line_ns)
        return written

    def fence(self, node_id: int) -> None:
        """Full memory barrier (ordering is already strict here; cost only)."""
        self._charge(self._live(node_id), 1, self.latency.fence_ns)

    def _write_back(self, node_id: int, addr: int, size: int, drop: bool) -> Tuple[int, int]:
        """``flush`` (``drop`` false) or ``flush_invalidate``: the gate, the
        cache's write-backs — its record and charge — then any drop's charge."""
        node, region, _, clean = self._access(node_id, addr, size)
        self._verdict = region, clean  # what the cache's write-backs act under
        cache = node.cache
        if drop:
            written, dropped = cache.flush_invalidate(addr, size)
        else:
            written, dropped = cache.flush(addr, size), 0
        lat = self.latency
        if written:
            self._tally(node_id, "cache.writeback_lines", written)
            self._charge(node, 0, 0.0, region, written, lat.writeback_line_ns)
        if drop:
            self._charge(node, dropped, lat.invalidate_line_ns)
        return written, dropped

    # -- fault management ------------------------------------------------------------------

    def on_crash(self, hook: "Callable[[int, float], None]") -> None:
        """Register ``hook(node_id, now_ns)`` to run after any node crash."""
        self._crash_hooks.append(hook)

    def crash_node(self, node_id: int) -> None:
        node = self._node(node_id)
        node.crash()
        self.faults.record_node_crash(node_id, now_ns=node.clock.now_ns)
        for hook in self._crash_hooks:
            hook(node_id, node.clock.now_ns)

    def restart_node(self, node_id: int) -> None:
        node = self._node(node_id)
        node.restart(at_ns=self.max_time())

    def power_cycle(self) -> None:
        """Power the whole rack off and on.

        Every node restarts with a cold cache and zeroed local DRAM.
        The global pool keeps its bytes only when it is persistent
        memory (``global_kind="pmem"``) — the paper's simulated
        platform; a DRAM pool comes back zeroed.  Clocks keep running
        (wall time does not reset).
        """
        latest = self.max_time()
        for node in self.nodes.values():
            node.restart(at_ns=latest)
            node.local_mem.write(0, bytes(node.local_mem.size))
            node.local_mem.poisoned.clear()
        if self.global_mem.kind is not MemoryKind.PMEM:
            self.global_mem.write(0, bytes(self.global_mem.size))
            self.global_mem.poisoned.clear()

    def set_repair_handler(self, handler: Optional[Callable[[int, int], bool]]) -> None:
        """Install the self-healing hook: ``handler(rack_addr, node_id) -> repaired``.

        Called when an access trips on poison; a True return means the
        poisoned range was rewritten from a redundancy source and the
        access may retry.  Pass ``None`` to disable (faults surface
        immediately again).
        """
        self._repair_handler = handler

    def poisoned_addrs(self, addr: int, size: int) -> List[int]:
        """Rack addresses poisoned within ``[addr, addr+size)`` (scrub query).

        The window must lie inside one region.  This is a *diagnostic*
        read of the poison metadata — the ECC scrub engine's view — so
        it does not roll fault dice or charge data-path latency.
        """
        region, offset = self.address_map.resolve(addr, 1)
        size = min(size, region.size - offset)
        return [region.base + o for o in region.device.poisoned_in(offset, size)]

    def repair_write(self, node_id: int, addr: int, data: bytes) -> None:
        """Rewrite a (possibly poisoned) range with known-good bytes.

        The repair path: clears poison, writes the recovered content to
        the backing device, and drops the repairing node's stale cached
        lines.  Charged like a non-temporal store burst.
        """
        node, region, offset, _ = self._access(node_id, addr, len(data))
        self._charge(node, 0, 0.0, region, -(-len(data) // self.line_size) or 1)
        region.device.clear_poison(offset, len(data))
        region.device.write(offset, data)
        node.cache.invalidate(addr, len(data))

    def set_link_state(self, u: str, v: str, up: bool) -> None:
        now_ns = self.max_time()
        self.fabric.set_link_state(u, v, up, now_ns=now_ns)
        self.faults.record_link_change(u, v, up, now_ns=now_ns)

    def sever_node_link(self, node_id: int, up: bool = False) -> None:
        """Take down (or restore) the first live link on the node's port."""
        src = node_vertex(node_id)
        for neighbor in self.fabric.graph.neighbors(src):
            self.set_link_state(src, neighbor, up)
            return
        raise KeyError(f"node {node_id} has no fabric links")

    # -- internals ------------------------------------------------------------------------------

    def _node(self, node_id: int) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise KeyError(f"no node {node_id} in rack of {len(self.nodes)}") from None

    def _live(self, node_id: int) -> Node:
        """The node, once it is known to exist and be up."""
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            self._node(node_id).check_alive()
        return node

    def _access(self, node_id: int, addr: int, size: int) -> Tuple[Node, Region, int, bool]:
        """The one gate every single op passes (DESIGN.md §3).

        Returns ``(node, region, offset, clean)``: the live issuing node,
        the region and device offset of ``[addr, addr+size)`` — from the
        node's one-entry TLB, or :meth:`_resolve_fast` when it misses —
        and whether ``_maybe_fault`` and ``_check_poison`` could have any
        effect (a fault armed for the region kind, or any poison on the
        device); callers enter them, in that order, only when not clean.
        """
        node = self.nodes.get(node_id)
        if node is None or not node.alive:  # == _live, minus its frame
            self._node(node_id).check_alive()
        base, end, region = self._tlb.get(node_id, _TLB_EMPTY)
        if (
            base <= addr
            and 0 < size
            and addr + size <= end
            and self.address_map.generation == self._tlb_gen
        ):
            offset = addr - base
        else:
            region, offset = self._resolve_fast(node_id, addr, size if size > 0 else 1)
        clean = not (region.device.poisoned or self.faults.armed[region.owner is None])
        return node, region, offset, clean

    def _resolve_fast(self, node_id: int, addr: int, size: int) -> Tuple[Region, int]:
        """TLB miss: :meth:`AddressMap.resolve`, protection check, refill.

        The TLB memoizes the last region each node touched; only regions
        the node may legally access are ever memoized, so a probe hit in
        :meth:`_access` needs no protection re-check.  Every memo drops
        when the address map changes.
        """
        amap = self.address_map
        if amap.generation != self._tlb_gen:
            self._tlb.clear()
            self._tlb_gen = amap.generation
        region, offset = amap.resolve(addr, size)
        if region.owner is not None and region.owner != node_id:
            raise ProtectionError(
                f"node {node_id} cannot access node {region.owner}'s local memory at {addr:#x}"
            )
        self._tlb[node_id] = (region.base, region.base + region.size, region)
        return region, offset

    def _atomic_prologue(self, node_id: int, addr: int, width: int):
        """Gate, charge, record and cache-drop of one atomic; returns
        ``(device slab, offset, codec, wrap mask)`` for the caller's
        read-modify-write."""
        codec = _INT.get(width)
        if codec is None:
            raise ValueError(f"atomic width must be one of {sorted(_INT)}, got {width}")
        if addr % width:
            raise ValueError(f"atomic access at {addr:#x} not {width}-byte aligned")
        node, region, offset, clean = self._access(node_id, addr, width)
        is_global = region.owner is None
        lat = self.latency
        self._charge(node, 1, lat.global_atomic_ns if is_global else lat.local_atomic_ns)
        if _TEL.enabled:
            _TEL.count(node_id, _SUB, "atomic.global" if is_global else "atomic.local")
        if _TEL.atlas is not None:
            _TEL.atlas.touch(addr, width)
        # an aligned access of at most 8 bytes lies in exactly one line; the
        # drop is the one cache-line touch the machine makes itself (a
        # NodeCache call here would be a frame on every atomic)
        cache = node.cache
        if cache._lines.pop(addr & ~self._line_mask, None) is not None:
            cache.stats.invalidations += 1
        if not clean:
            self._maybe_fault(region, offset, width, node_id)
            self._check_poison(region, offset, width, node_id)
        return region.device.slab, offset, codec[0], codec[1]

    def _path_cost(self, node_id: int, region: Region) -> Tuple[int, int]:
        if not region.is_global:
            return 0, 0
        cost = self.fabric.path_to_gmem(node_id)
        return cost.hops, cost.switches

    def _charge(
        self,
        node: Node,
        hits: int,
        hit_ns: float,
        region: Optional[Region] = None,
        lines: int = 0,
        extra: float = 0.0,
        ops: int = 1,
    ) -> None:
        """The machine's one clock door (DESIGN.md §3): ``ops`` times
        ``hits·hit_ns + first + (lines−1)·rest + lines·extra``, added left to
        right in that order and, for a batch, folded by ``np.add.accumulate``
        (a strict left fold), so clocks are bit for bit the single adds the
        goldens pin.  ``first`` / ``rest`` are one line's device latency and
        each further line's bandwidth cost for ``node`` reaching ``region``,
        memoized until the fabric's generation moves.  No negative check:
        every term is a validated :class:`LatencyModel` field or a count.
        """
        ns = hits * hit_ns
        if lines:
            fabric, memo = self.fabric, self._charge_memo
            if fabric.generation != self._charge_gen:
                memo.clear()
                self._charge_gen = fabric.generation
            key = (node.node_id, region.base)
            pair = memo.get(key)
            if pair is None:
                lat, is_global = self.latency, region.owner is None
                hops, switches = self._path_cost(node.node_id, region)
                first = lat.device_ns(is_global=is_global, hops=hops, switches=switches)
                if region.device.kind is MemoryKind.PMEM:
                    pair = (first + lat.pmem_extra_ns, self.line_size / lat.pmem_bw_bytes_per_ns)
                else:
                    pair = (first, lat.pipelined_line_ns(self.line_size, is_global=is_global))
                memo[key] = pair
            first, rest = pair
            ns += first
            ns += (lines - 1) * rest
            ns += lines * extra
        clock = node.clock
        if ops == 1:
            clock._now_ns += ns
            return
        global _fold
        if ops >= len(_fold):
            _fold = np.empty(2 * ops, dtype=np.float64)
        acc = _fold[: ops + 1]
        acc.fill(ns)
        acc[0] = clock._now_ns
        np.add.accumulate(acc, out=acc)
        clock._now_ns = float(acc[-1])

    def _tally(self, node_id: int, name: str, n: int = 1) -> None:
        """The record of an op off the hot path — a write-back, a fault."""
        if _TEL.enabled:
            _TEL.count(node_id, _SUB, name, n)

    # -- bulk internals ----------------------------------------------------------------

    def _bulk_epilogue(
        self,
        node_id: int,
        addrs: Sequence[int],
        size: int,
        region: Region,
        counter: Optional[str] = None,
    ) -> None:
        """Charge, count and atlas-touch a vectorized batch of ``len(addrs)``
        ops of ``size`` bytes in ``region``: bypass bursts named ``counter``,
        or atomics (``counter`` None).  The plan proved no fault, poison or
        error is involved, so only the final clock value is observable."""
        n, lat, node = len(addrs), self.latency, self.nodes[node_id]
        if counter is None:
            is_global = region.owner is None
            counter = "atomic.global" if is_global else "atomic.local"
            self._charge(node, 1, lat.global_atomic_ns if is_global else lat.local_atomic_ns, ops=n)
        else:
            self._charge(node, 0, 0.0, region, -(-size // self.line_size), 0.0, n)
        if _TEL.enabled:
            _TEL.add(node_id, _SUB, counter, float(n))
        if _TEL.atlas is not None:
            _TEL.atlas.touch_many(addrs.addrs() if type(addrs) is SlotRef else addrs, size)

    def _bulk_plan(
        self, node_id: int, addrs: Union[Sequence[int], SlotRef], size: int
    ) -> Optional[Tuple[Region, np.ndarray, np.ndarray]]:
        """One window or the loop: ``(region, slots, idx)``, or ``None``.

        A batch vectorizes when it is items ``idx`` of ``slots`` (device
        bytes as ``size``-byte items) in one region the live issuing node
        may access, with no fault armed for that region kind and no
        poisoned byte in the window.  A :class:`SlotRef` carries its window:
        nothing is looked up, and the poison query covers the whole held
        window (a superset of the batch's span: it can only choose the loop
        more often).  An address vector goes through the gate: the span its
        min/max bound, every address whole slots above the lowest.

        ``None`` means only the loop of single ops preserves exact
        semantics: a dead node (the raise), not one region the node may
        touch (each op pays its own region's charge; an error must surface
        at its op index, after the prior ops' side effects), an armed fault
        (RNG draws and timestamps interleave per op), poison in the window
        (the raise happens mid-batch with the clock mid-way), not slots of
        one table (a size other than the window's, addresses a fraction of
        a slot apart), or addresses numpy cannot hold as an int64 vector.
        """
        node = self.nodes.get(node_id)
        if node is None or not node.alive or size <= 0:
            return None
        if type(addrs) is SlotRef:
            window, idx = addrs.window, addrs.idx
            if window.generation != window.address_map.generation:
                window.resolve()
            region, offset, slots = window.region, window.offset, window.slots
            if region is None or size != window.size or len(idx) == 0:
                return None
            if region.owner is not None and region.owner != node_id:
                return None  # ProtectionError belongs to one op index
            span = slots.nbytes
        else:
            try:
                arr = np.asarray(addrs, dtype=np.int64)
            except (TypeError, ValueError, OverflowError):
                return None
            if arr.ndim != 1 or arr.shape[0] == 0:
                return None
            lo = int(arr.min())
            span = int(arr.max()) + size - lo
            try:
                _, region, offset, _ = self._access(node_id, lo, span)
            except MemoryError_:
                return None  # the raise belongs to one op index
            idx, within = np.divmod(arr - lo, size)
            if within.any():
                return None
            slots = _slots(region.device, offset, span, size)
        device = region.device
        if self.faults.armed[region.owner is None] or (
            device.poisoned and device.is_poisoned(offset, span)
        ):
            return None
        return region, slots, idx

    def _bulk_bypass_store(self, node_id: int, ref: SlotRef, packed, size: int) -> bool:
        """Vectorized non-temporal scatter of a packed buffer into slots of
        a held window; False means go sequential (the plan refused).

        Every op charges, counts and touches the atlas; only the last
        writer of each slot reaches the device.  Slots coincide or are
        disjoint, so that is the highest op index stamped on the slot:
        ``np.maximum.at`` is specified for repeated indices, and every
        writer of a slot then writes that op's payload, so the order numpy
        assigns repeats in cannot matter.
        """
        plan = self._bulk_plan(node_id, ref, size)
        if plan is None:
            return False
        region, slots, idx = plan
        try:
            payload = np.frombuffer(packed, dtype=slots.dtype)
        except (TypeError, ValueError, BufferError):
            return False
        stamp = ref.window.stamp
        order = np.arange(len(idx))
        np.maximum.at(stamp, idx, order)
        last = stamp.take(idx)
        stamp[idx] = -1
        if np.count_nonzero(last != order):  # no repeat (a preload): no copy either
            payload = payload.take(last)
        # plan proved no poison in the window: per-op clear_poison would be
        # a no-op, so skipping it is exact
        slots[idx] = payload
        self._bulk_epilogue(node_id, ref, size, region, "bypass.store")
        return True

    def _bulk_atomic_plan(
        self, node_id: int, addrs: Sequence[int], width: int
    ) -> Optional[Tuple[Region, np.ndarray, np.ndarray]]:
        """Plan a batched atomic; ``None`` means go sequential.

        On top of :meth:`_bulk_plan`'s rules, atomics also go sequential
        on a misaligned address (the raise at its index), duplicate
        addresses (chained read-modify-writes), or any touched line
        resident in the issuing node's cache (the per-op invalidate is
        observable in eviction order).
        """
        if width not in _INT_DTYPE:
            raise ValueError(
                f"atomic width must be one of {sorted(_INT)}, got {width}"
            )
        try:
            arr = np.asarray(addrs, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            return None
        plan = self._bulk_plan(node_id, arr, width)
        if plan is None:
            return None
        if int(arr[0]) % width:
            return None  # the plan's slots are whole widths apart: one misaligned, all are
        srt = np.sort(arr)
        if srt.shape[0] > 1 and bool(np.any(srt[1:] == srt[:-1])):
            return None  # duplicates: chained read-modify-writes
        if self.nodes[node_id].cache.holds_any(arr):
            return None
        return plan

    def _maybe_fault(self, region: Region, offset: int, size: int, node_id: int) -> None:
        faults = self.faults
        if faults.is_noop(region.owner is None):
            # no fault can fire for this region kind: skip the path-cost
            # lookup and the injector call without touching the RNG stream
            return
        hops, switches = self._path_cost(node_id, region)
        faults.on_access(
            region, offset, size, node_id, self.now(node_id), path_cost=hops + switches
        )

    def _check_poison(self, region: Region, offset: int, size: int, node_id: int) -> None:
        device = region.device
        if not device.is_poisoned(offset, size):
            return
        handler = self._repair_handler
        if handler is not None and not self._in_repair:
            # bounded retry-after-repair: hand the poisoned address to the
            # self-healing pipeline, back off, and re-check.  The guard
            # stops the handler's own reads from re-entering this path.
            node = self.nodes.get(node_id)
            for attempt in range(1, self.repair_max_retries + 1):
                victims = device.poisoned_in(offset, size)
                if not victims:
                    return
                self._tally(node_id, "fault.retry")
                self._in_repair = True
                try:
                    repaired = handler(region.base + victims[0], node_id)
                finally:
                    self._in_repair = False
                if node is not None:
                    self._charge(node, attempt, self.repair_backoff_ns)
                if not repaired:
                    break
            if not device.is_poisoned(offset, size):
                return
        self._tally(node_id, "fault.ue_raised")
        raise UncorrectableMemoryError(region.base + offset, node_id)

    def _read_backing(self, node_id: int, addr: int, size: int) -> Optional[bytes]:
        """``node_id``'s cache fetching a line, or a run of lines in one read,
        under the verdict of the gate its op passed; ``None`` for a run whose
        per-line sequence is observable (a fault can fire, poison exists, or
        it is not one window of one region): fill it line by line."""
        region, clean = self._verdict
        offset = addr - region.base
        if offset < 0 or offset + size > region.size:
            # not under that verdict: a line past the end of a region that is
            # not line aligned, or a repair handler's own accesses in between
            try:
                _, region, offset, clean = self._access(node_id, addr, size)
            except MemoryError_:
                if size > self.line_size:
                    return None
                raise
        if not clean:
            if size > self.line_size:
                return None
            self._maybe_fault(region, offset, size, node_id)
            self._check_poison(region, offset, size, node_id)
        return region.device.read(offset, size)

    def _write_backing(self, addr: int, data: bytes) -> None:
        """Write back a line, or a run of lines as one device write.  A
        write-back rolls no dice and needs no gate — a resident line passed
        one when it was filled — so only where its bytes live is looked up."""
        size = len(data)
        region = self._verdict[0]
        offset = addr - region.base
        if offset < 0 or offset + size > region.size:  # a victim elsewhere
            try:
                region, offset = self.address_map.resolve(addr, size)
            except MemoryError_:
                if size <= self.line_size:
                    raise
                for lo in range(0, size, self.line_size):  # not one window: line by line
                    self._write_backing(addr + lo, data[lo : lo + self.line_size])
                return
        region.device.clear_poison(offset, size)
        region.device.write(offset, data)


class NodeContext:
    """All machine operations bound to one node — the handle software holds."""

    __slots__ = ("machine", "node_id", "_clock")

    def __init__(self, machine: RackMachine, node_id: int) -> None:
        self.machine = machine
        self.node_id = node_id
        # a Node and its clock live as long as the machine (crash and
        # restart keep both), so time goes to the clock directly
        self._clock = machine.nodes[node_id].clock

    # data path
    def load(self, addr: int, size: int, *, bypass_cache: bool = False) -> bytes:
        return self.machine.load(self.node_id, addr, size, bypass_cache=bypass_cache)

    def store(self, addr: int, data: bytes, *, bypass_cache: bool = False) -> None:
        self.machine.store(self.node_id, addr, data, bypass_cache=bypass_cache)

    # bulk data plane
    def load_many(
        self,
        addrs: Sequence[int],
        size: int,
        *,
        bypass_cache: bool = False,
        concat: bool = False,
    ) -> Union[List[bytes], bytes]:
        return self.machine.load_many(
            self.node_id, addrs, size, bypass_cache=bypass_cache, concat=concat
        )

    def store_many(
        self,
        addrs: Sequence[int],
        data: Union[Sequence[bytes], bytes],
        *,
        bypass_cache: bool = False,
        size: Optional[int] = None,
    ) -> None:
        self.machine.store_many(
            self.node_id, addrs, data, bypass_cache=bypass_cache, size=size
        )

    def copy(self, dst: int, src: int, size: int, *, bypass_cache: bool = False) -> None:
        self.machine.copy(self.node_id, dst, src, size, bypass_cache=bypass_cache)

    def fill(self, addr: int, size: int, value: int, *, bypass_cache: bool = False) -> None:
        self.machine.fill(self.node_id, addr, size, value, bypass_cache=bypass_cache)

    def atomic_load_many(self, addrs: Sequence[int], width: int = 8) -> List[int]:
        return self.machine.atomic_load_many(self.node_id, addrs, width)

    def atomic_store_many(
        self, addrs: Sequence[int], values: Union[int, Sequence[int]], width: int = 8
    ) -> None:
        self.machine.atomic_store_many(self.node_id, addrs, values, width)

    # atomics
    def cas(self, addr: int, expected: int, new: int, width: int = 8) -> Tuple[bool, int]:
        return self.machine.atomic_cas(self.node_id, addr, expected, new, width)

    def fetch_add(self, addr: int, delta: int, width: int = 8) -> int:
        return self.machine.atomic_fetch_add(self.node_id, addr, delta, width)

    def swap(self, addr: int, new: int, width: int = 8) -> int:
        return self.machine.atomic_swap(self.node_id, addr, new, width)

    def atomic_load(self, addr: int, width: int = 8) -> int:
        return self.machine.atomic_load(self.node_id, addr, width)

    def atomic_store(self, addr: int, value: int, width: int = 8) -> None:
        self.machine.atomic_store(self.node_id, addr, value, width)

    # maintenance
    def flush(self, addr: int, size: int) -> int:
        return self.machine.flush(self.node_id, addr, size)

    def invalidate(self, addr: int, size: int) -> int:
        return self.machine.invalidate(self.node_id, addr, size)

    def flush_invalidate(self, addr: int, size: int) -> Tuple[int, int]:
        return self.machine.flush_invalidate(self.node_id, addr, size)

    def fence(self) -> None:
        self.machine.fence(self.node_id)

    # time
    def now(self) -> float:
        return self._clock._now_ns

    def advance(self, ns: float) -> float:
        return self._clock.advance(ns)

    @property
    def node(self) -> Node:
        return self.machine.nodes[self.node_id]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeContext(node={self.node_id})"


def _ints(addrs: Union[Sequence[int], SlotRef]) -> Sequence[int]:
    """Plain ints for the per-op loops: an address array's ``np.int64``
    items would leak into fault logs, atlas keys and error objects."""
    if type(addrs) is SlotRef:
        addrs = addrs.addrs()
    return addrs.tolist() if isinstance(addrs, np.ndarray) else addrs


def _slots(device: PhysicalMemory, offset: int, span: int, size: int) -> np.ndarray:
    """``span`` device bytes at ``offset`` as items of ``size`` opaque bytes:
    ``take`` gathers and indexed assignment scatters whole items, on a
    contiguous view (``take`` on the device's overlapping-stride
    ``_windows`` table would first copy the device)."""
    return device.slab[offset : offset + span].view(np.dtype((np.void, size)))


def _split(buf: bytes, size: int) -> List[bytes]:
    """Cut a packed gather result into per-op ``bytes`` chunks."""
    return [buf[i : i + size] for i in range(0, len(buf), size)]
