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
from .clock import fold_adds
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


#: Atomics act on aligned little-endian 8-byte words: their codec and wrap mask.
_U64, _MASK64 = struct.Struct("<Q"), (1 << 64) - 1
#: A poisoned access retries after a claimed repair at most this many times,
#: backing off ``attempt * REPAIR_BACKOFF_NS`` before each re-check.
REPAIR_MAX_RETRIES, REPAIR_BACKOFF_NS = 3, 500.0

#: Telemetry subsystem for the data plane (metric naming convention:
#: DESIGN.md §8); each op kind records in one place (DESIGN.md §3).
_SUB = "rack.machine"

#: A node's TLB slot before its first resolve: covers nothing, node unread.
_TLB_EMPTY = (None, 0, 0, None)
#: The int64 dtype object, compared by identity with a vector's own.
_INT64 = np.dtype(np.int64)


class SlotRef:
    """Slots ``idx`` of ``window``: made by :meth:`SlotWindow.at` (or from an
    address vector by :meth:`RackMachine._as_window`); ``store_many`` takes
    one, and ``load_many`` takes one wherever it takes addresses."""

    __slots__ = ("window", "idx")

    def __len__(self) -> int:
        return len(self.idx)

    def addrs(self) -> np.ndarray:
        """Physical addresses, for the loop of single ops and the atlas."""
        return self.window.base + self.idx * self.window.size


class SlotWindow:
    """``n`` consecutive ``size``-byte slots at physical ``base``, resolved
    once, when it is made (the address map never changes), to ``region``,
    device ``offset`` and ``slots`` (:func:`_slots` of exactly those bytes,
    items of dtype ``item``); ``region`` is ``None`` when the span is not
    one mapped window.  ``prices`` holds one bypass op's charge per issuing
    node (``None``: the loop), for one ``fabric_gen``.  (DESIGN.md §10)"""

    __slots__ = ("base", "n", "size", "item", "region", "offset", "slots", "fabric_gen", "prices")

    def __init__(self, address_map: AddressMap, base: int, n: int, size: int) -> None:
        if n < 1 or size < 1:
            raise ValueError(f"a slot window needs n >= 1 and size >= 1, got n={n} size={size}")
        self.base, self.n, self.size, span = base, n, size, n * size
        self.item = np.dtype((np.void, size))
        self.fabric_gen, self.prices = None, {}
        try:
            self.region, self.offset = address_map.resolve(base, span)
            self.slots = _slots(self.region.device, self.offset, span, size)
        except MemoryError_:
            self.region = self.offset = self.slots = None

    def at(self, idx) -> SlotRef:
        """A reference to slots ``idx`` (one int64 vector, repeats allowed).
        numpy would wrap a negative index into the window's last slots, so
        the bounds check is the *unsigned* maximum: an index outside
        ``[0, n)`` is an ``IndexError`` here, before any op is issued."""
        if type(idx) is not np.ndarray or idx.dtype is not _INT64:
            idx = np.asarray(idx, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("slot indices must be one vector")
        if len(idx) and int(np.maximum.reduce(idx.view(np.uint64))) >= self.n:
            raise IndexError(f"slot index outside window of {self.n} slots at {self.base:#x}")
        ref = SlotRef()
        ref.window, ref.idx = self, idx
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
        # a Node and its clock outlive crashes and restarts, so one context each
        self._contexts = {node_id: NodeContext(self, node_id) for node_id in self.nodes}
        self.address_map: AddressMap = build_address_map(local_devices, self.global_mem)
        self.fabric: Interconnect = topo.build(cfg.topology, cfg.n_nodes)
        self.faults = FaultInjector(cfg.faults, seed=cfg.seed)
        self.latency = cfg.latency
        self.line_size = cfg.cache_line_size
        # -- data-plane state (see DESIGN.md §3) ----------------------------
        self._line_mask = cfg.cache_line_size - 1
        # Software TLB: per-node (node, base, end, region) of the last region
        # resolved; the address map is fixed, so an entry never goes stale.
        self._tlb: Dict[int, Tuple[Node, int, int, Region]] = {}
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
        """The node's one view of the machine (the common handle)."""
        ctx = self._contexts.get(node_id)
        if ctx is None:
            self._node(node_id)  # raises, naming the rack
        return ctx

    # -- time -------------------------------------------------------------------

    def now(self, node_id: int) -> float:
        return self._node(node_id).clock.now_ns

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
        op has completed; the cached charge comes after both.  The gate's
        hit verdict is read from the node's TLB entry (DESIGN.md §3)."""
        node, base, end, region = self._tlb.get(node_id, _TLB_EMPTY)
        if base <= addr and addr + size <= end and 0 < size and node.alive:  # _access, inline
            offset = addr - base
            clean = not (region.device.poisoned or self.faults.armed[region.owner is None])
        else:
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

    def atomic_cas(self, node_id: int, addr: int, expected: int, new: int) -> Tuple[bool, int]:
        """Compare-and-swap directly on backing memory.

        Returns ``(swapped, observed_value)``.  The issuing node's cached
        copy of the line is invalidated so subsequent cached loads observe
        the device value.
        """
        slab, offset = self._atomic_prologue(node_id, addr)
        current = _U64.unpack_from(slab, offset)[0]
        swapped = current == expected
        if swapped:
            _U64.pack_into(slab, offset, new & _MASK64)
        return swapped, current

    def atomic_fetch_add(self, node_id: int, addr: int, delta: int) -> int:
        """Atomically add ``delta`` (wrapping at 2**64); returns the *old* value."""
        slab, offset = self._atomic_prologue(node_id, addr)
        current = _U64.unpack_from(slab, offset)[0]
        _U64.pack_into(slab, offset, (current + delta) & _MASK64)
        return current

    def atomic_swap(self, node_id: int, addr: int, new: int) -> int:
        """Atomically exchange; returns the old value."""
        slab, offset = self._atomic_prologue(node_id, addr)
        current = _U64.unpack_from(slab, offset)[0]
        _U64.pack_into(slab, offset, new & _MASK64)
        return current

    def atomic_load(self, node_id: int, addr: int) -> int:
        """Coherent (cache-bypassing) word load; a word the hit verdict passes stays here."""
        node, base, end, region = self._tlb.get(node_id, _TLB_EMPTY)
        if (not addr & 7 and base <= addr and addr + 8 <= end and node.alive
                and not (region.device.poisoned or self.faults.armed[region.owner is None])):
            lat = self.latency
            self._charge(node, 1, lat.local_atomic_ns if region.owner is not None else lat.global_atomic_ns)
            if _TEL.enabled or _TEL.atlas is not None:
                self._atomic_record(node_id, addr, region.owner is None)
            if node.cache._lines.pop(addr & ~self._line_mask, None) is not None:
                node.cache.stats.invalidations += 1
            return _U64.unpack_from(region.device.slab, addr - base)[0]
        return _U64.unpack_from(*self._atomic_prologue(node_id, addr))[0]

    def atomic_store(self, node_id: int, addr: int, value: int) -> None:
        """Coherent (cache-bypassing) word store; the hit path is :meth:`atomic_load`'s."""
        node, base, end, region = self._tlb.get(node_id, _TLB_EMPTY)
        if (not addr & 7 and base <= addr and addr + 8 <= end and node.alive
                and not (region.device.poisoned or self.faults.armed[region.owner is None])):
            lat = self.latency
            self._charge(node, 1, lat.local_atomic_ns if region.owner is not None else lat.global_atomic_ns)
            if _TEL.enabled or _TEL.atlas is not None:
                self._atomic_record(node_id, addr, region.owner is None)
            if node.cache._lines.pop(addr & ~self._line_mask, None) is not None:
                node.cache.stats.invalidations += 1
            _U64.pack_into(region.device.slab, addr - base, value & _MASK64)
            return
        _U64.pack_into(*self._atomic_prologue(node_id, addr), value & _MASK64)

    # -- bulk data plane (DESIGN.md §10) -----------------------------------------------
    #
    # Every bulk API *is* a loop of single ops, every observable included.
    # A bypass batch or a batched atomic that is slots of one clean window —
    # a held one, or an address vector's (:meth:`_as_window`) — is one
    # gather/scatter, one charge of ``n`` equal adds (:func:`fold_adds`) and
    # one aggregated record (:meth:`_held`); every batch refused is the loop
    # itself, down to the op index an error surfaces at.

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
        held = type(addrs) is SlotRef
        if len(addrs.idx if held else addrs) == 0:
            return b"" if concat else []
        ref = (addrs if held else self._as_window(addrs, size)) if bypass_cache else None
        slots = None if ref is None else self._held(node_id, ref, size, "bypass.load")
        if slots is None:
            parts = [
                self.load(node_id, a, size, bypass_cache=bypass_cache) for a in _ints(addrs)
            ]
            return b"".join(parts) if concat else parts
        buf = slots.take(ref.idx).tobytes()
        return buf if concat else _split(buf, size)

    def store_many(self, node_id: int, ref: SlotRef, table) -> None:
        """Write slots ``ref.idx`` of a held window non-temporally (scatter
        write) from the window's whole row table: ``n * size`` bytes (``bytes``
        or a flat uint8 array), op ``i`` writing row ``idx[i]`` into slot
        ``idx[i]``, so repeated slots need no last-writer pass.  Equivalent
        to a loop of bypass :meth:`store`; a batch on a clean window is one
        scatter, a table of any other length a ``ValueError`` before any op.
        """
        window = ref.window
        size = window.size
        if len(table) != window.n * size:
            raise ValueError(f"store_many on a window of {window.n} x {size}B slots got "
                             f"a row table of {len(table)} bytes")
        try:  # a table numpy cannot view as rows in place goes to the loop
            rows = np.frombuffer(table, dtype=window.item)
        except (TypeError, ValueError, BufferError):
            rows = None
        slots = None if rows is None else self._held(node_id, ref, size, "bypass.store")
        if slots is not None:
            # a slot's writers all write its one row, so the order numpy
            # assigns repeats in cannot matter; the window proved no poison
            # in it, so skipping per-op clear_poison is exact
            idx = ref.idx
            slots[idx] = rows.take(idx)
            return
        table = bytes(table)
        for a, k in zip(ref.addrs().tolist(), ref.idx.tolist()):
            self.store(node_id, a, table[k * size : (k + 1) * size], bypass_cache=True)

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
    ) -> List[int]:
        """Batched :meth:`atomic_fetch_add`; returns the old values.

        ``deltas`` may be one int (broadcast) or a parallel sequence.
        """
        n = len(addrs)
        if isinstance(deltas, int):
            deltas = [deltas] * n
        elif len(deltas) != n:
            raise ValueError(f"{n} addresses but {len(deltas)} deltas")
        return [self.atomic_fetch_add(node_id, a, d) for a, d in zip(addrs, deltas)]

    def atomic_load_many(self, node_id: int, addrs: Sequence[int]) -> List[int]:
        """Batched :meth:`atomic_load` (coherent scatter-gather read).

        One gather when :meth:`_atomic_window` and :meth:`_held` accept the
        batch — identical observables to a loop of single ``atomic_load``
        calls, which is what a refused batch (duplicates, cached lines,
        armed faults, ...) is issued as.
        """
        if len(addrs) == 0:
            return []
        ref = self._atomic_window(node_id, addrs)
        slots = None if ref is None else self._held(node_id, ref, 8, None)
        if slots is None:
            return [self.atomic_load(node_id, a) for a in addrs]
        return slots.take(ref.idx).view("<u8").tolist()

    def atomic_store_many(self, node_id: int, addrs: Sequence[int], value: int) -> None:
        """Batched :meth:`atomic_store` of one ``value`` to every word
        (coherent broadcast write: the shape of every region format loop).
        Same window and fallbacks as :meth:`atomic_load_many`; a batch
        refused is issued as the loop of single stores it stands for.
        """
        if len(addrs) == 0:
            return
        # a value that is no int goes to the loop, which raises at op 0
        ref = self._atomic_window(node_id, addrs) if isinstance(value, int) else None
        slots = None if ref is None else self._held(node_id, ref, 8, None)
        if slots is None:
            for a in addrs:
                self.atomic_store(node_id, a, value)
            return
        # _atomic_window proved idx unique; masked in Python: 2**64 - 1 overflows int64
        slots[ref.idx] = np.full(len(ref.idx), value & _MASK64, dtype="<u8").view(slots.dtype)

    def atomic_cas_many(
        self,
        node_id: int,
        addrs: Sequence[int],
        expected: Sequence[int],
        new: Sequence[int],
    ) -> List[Tuple[bool, int]]:
        """Batched :meth:`atomic_cas`; returns ``(swapped, observed)`` pairs."""
        if len(expected) != len(addrs) or len(new) != len(addrs):
            raise ValueError("atomic_cas_many needs parallel addrs/expected/new")
        return [self.atomic_cas(node_id, a, e, v) for a, e, v in zip(addrs, expected, new)]

    # -- cache maintenance -------------------------------------------------------------

    def flush(self, node_id: int, addr: int, size: int) -> int:
        """Write back dirty lines (``dc cvac``); returns lines written."""
        return self._write_back(node_id, addr, size, False)[0]

    def invalidate(self, node_id: int, addr: int, size: int) -> int:
        """Drop cached lines without write-back (``dc ivac``)."""
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            self._node(node_id).check_alive()
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
        node = self._node(node_id)
        node.check_alive()
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
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            self._node(node_id).check_alive()
        self._charge(node, 1, self.latency.fence_ns)

    def _write_back(self, node_id: int, addr: int, size: int, drop: bool) -> Tuple[int, int]:
        """``flush`` (``drop`` false) or ``flush_invalidate``: the gate, the
        cache's write-backs — its record and charge — then any drop's charge."""
        node, region, _, clean = self._access(node_id, addr, size)
        self._verdict = region, clean  # what the cache's write-backs act under
        cache = node.cache
        if drop:
            written, dropped = cache.flush(addr, size), cache.invalidate(addr, size)
        else:
            written, dropped = cache.flush(addr, size), 0
        lat = self.latency
        if written:
            if _TEL.enabled:
                _TEL.count(node_id, _SUB, "cache.writeback_lines", written)
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

    def _access(self, node_id: int, addr: int, size: int) -> Tuple[Node, Region, int, bool]:
        """The one gate every single op passes (DESIGN.md §3).

        Returns ``(node, region, offset, clean)``: the live issuing node,
        the region and device offset of ``[addr, addr+size)`` — from the
        node's one-entry TLB, or :meth:`_resolve_fast` when it misses —
        and whether ``_maybe_fault`` and ``_check_poison`` could have any
        effect (a fault armed for the region kind, or any poison on the
        device); callers enter them, in that order, only when not clean.
        """
        node, base, end, region = self._tlb.get(node_id, _TLB_EMPTY)
        if base <= addr and addr + size <= end and 0 < size and node.alive:
            offset = addr - base
        else:
            node = self._node(node_id)
            node.check_alive()
            region, offset = self._resolve_fast(node_id, addr, size if size > 0 else 1)
        clean = not (region.device.poisoned or self.faults.armed[region.owner is None])
        return node, region, offset, clean

    def _resolve_fast(self, node_id: int, addr: int, size: int) -> Tuple[Region, int]:
        """TLB miss: :meth:`AddressMap.resolve`, protection check, refill.

        The TLB memoizes the last region each node touched; only regions
        the node may legally access are ever memoized, so a probe hit in
        :meth:`_access` needs no protection re-check.
        """
        region, offset = self.address_map.resolve(addr, size)
        if region.owner is not None and region.owner != node_id:
            raise ProtectionError(
                f"node {node_id} cannot access node {region.owner}'s local memory at {addr:#x}"
            )
        self._tlb[node_id] = (self.nodes[node_id], region.base, region.base + region.size, region)
        return region, offset

    def _atomic_prologue(self, node_id: int, addr: int):
        """Gate, charge, record and cache-drop of one atomic; returns the
        word's ``(device slab, offset)`` for the caller's read-modify-write."""
        if addr % 8:
            raise ValueError(f"atomic access at {addr:#x} not 8-byte aligned")
        node, region, offset, clean = self._access(node_id, addr, 8)
        is_global = region.owner is None
        lat = self.latency
        self._charge(node, 1, lat.global_atomic_ns if is_global else lat.local_atomic_ns)
        self._atomic_record(node_id, addr, is_global)
        # an aligned word lies in exactly one line; the drop is the one
        # cache-line touch the machine makes itself (a NodeCache call here
        # would be a frame on every atomic)
        cache = node.cache
        if cache._lines.pop(addr & ~self._line_mask, None) is not None:
            cache.stats.invalidations += 1
        if not clean:
            self._maybe_fault(region, offset, 8, node_id)
            self._check_poison(region, offset, 8, node_id)
        return region.device.slab, offset

    def _atomic_record(self, node_id: int, addr: int, is_global: bool) -> None:
        """An atomic's record, wherever it was gated: its counter, then its atlas touch."""
        if _TEL.enabled:
            _TEL.count(node_id, _SUB, "atomic.global" if is_global else "atomic.local")
        if _TEL.atlas is not None:
            _TEL.atlas.touch(addr, 8)

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
    ) -> None:
        """The clock door of every single op (DESIGN.md §3):
        ``hits·hit_ns + first + (lines−1)·rest + lines·extra``, added left to
        right in that order, so clocks are bit for bit the adds the goldens
        pin.  ``first`` / ``rest`` are :meth:`_line_cost`'s, memoized until
        the fabric's generation moves.  No negative check: every term is a
        validated :class:`LatencyModel` field or a count.
        """
        ns = hits * hit_ns
        if lines:
            fabric, memo = self.fabric, self._charge_memo
            if fabric.generation != self._charge_gen:
                memo.clear()
                self._charge_gen = fabric.generation
            pair = memo.get((node.node_id, region.base))
            if pair is None:
                pair = memo[node.node_id, region.base] = self._line_cost(node.node_id, region)
            first, rest = pair
            ns += first
            ns += (lines - 1) * rest
            ns += lines * extra
        node.clock._now_ns += ns

    def _line_cost(self, node_id: int, region: Region) -> Tuple[float, float]:
        """``(first, rest)``: one line's device latency and each further
        line's bandwidth cost for ``node_id`` reaching ``region``."""
        lat, is_global = self.latency, region.owner is None
        hops, switches = self._path_cost(node_id, region)
        first = lat.device_ns(is_global=is_global, hops=hops, switches=switches)
        if region.device.kind is MemoryKind.PMEM:
            return first + lat.pmem_extra_ns, self.line_size / lat.pmem_bw_bytes_per_ns
        return first, lat.pipelined_line_ns(self.line_size, is_global=is_global)

    # -- bulk internals ----------------------------------------------------------------

    def _held(self, node_id: int, ref: SlotRef, size: int, counter: Optional[str]) -> Optional[np.ndarray]:
        """The window is the plan: its slots, with the batch of ``n`` ops
        charged and counted as ``counter`` — bypass bursts at the window's
        price, or atomics (``counter`` None) — or ``None`` for the loop of
        single ops (DESIGN.md §10).  What moves only with the fabric sits in
        the window's per-node price, so a batch checks only what can change
        between two: its size and length, the issuer alive, no fault armed
        for the region kind, no poison in the window."""
        window, n = ref.window, len(ref.idx)
        fabric = self.fabric
        if window.fabric_gen != fabric.generation:
            window.fabric_gen, window.prices = fabric.generation, {}
        prices = window.prices
        if node_id not in prices:
            prices[node_id] = self._price(node_id, window)
        price = prices[node_id]
        if price is None or size != window.size or n == 0:
            return None
        node, region = self.nodes[node_id], window.region
        device, is_global = region.device, region.owner is None
        if not node.alive or self.faults.armed[is_global] or (
            device.poisoned and device.is_poisoned(window.offset, window.slots.nbytes)
        ):
            return None
        if counter is None:
            lat = self.latency
            price = lat.global_atomic_ns if is_global else lat.local_atomic_ns
            counter = "atomic.global" if is_global else "atomic.local"
        clock = node.clock
        clock._now_ns = fold_adds(clock._now_ns, price, n)
        if _TEL.enabled:
            _TEL.add(node_id, _SUB, counter, float(n))
        if _TEL.atlas is not None:
            _TEL.atlas.touch_many(ref.addrs(), size)
        return window.slots

    def _price(self, node_id: int, window: SlotWindow) -> Optional[float]:
        """One bypass op's charge on a slot of ``window`` for ``node_id``, in
        :meth:`_charge`'s float operations and order; ``None`` where each
        bypass op must raise: no such node, no one region, another node's
        memory, or a region out of the node's reach."""
        region = window.region
        if node_id not in self.nodes or region is None or region.owner not in (None, node_id):
            return None
        if region.owner is None and not self.fabric.reachable(node_id):
            return None
        first, rest = self._line_cost(node_id, region)
        return first + (-(-window.size // self.line_size) - 1) * rest

    def _as_window(self, addrs: Sequence[int], size: int) -> Optional[SlotRef]:
        """An address vector as slots of one window: every address whole
        ``size``-byte slots above the lowest, the window the span they
        cover.  ``None`` where they are not (addresses a fraction of a slot
        apart) or numpy cannot hold them as an int64 vector."""
        try:
            arr = np.asarray(addrs, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            return None
        if arr.ndim != 1 or arr.shape[0] == 0 or size <= 0:
            return None
        lo = int(arr.min())
        idx, within = np.divmod(arr - lo, size)
        if within.any():
            return None
        ref = SlotRef()
        ref.window, ref.idx = SlotWindow(self.address_map, lo, (int(arr.max()) - lo) // size + 1, size), idx
        return ref

    def _atomic_window(self, node_id: int, addrs: Sequence[int]) -> Optional[SlotRef]:
        """A batched atomic's words as slots of one window, or ``None`` to go
        sequential: on top of :meth:`_held`'s rules, atomics also go
        sequential on a misaligned address (the raise at its index),
        duplicate addresses (chained read-modify-writes), or any touched
        line resident in the issuing node's cache (the per-op invalidate is
        observable in eviction order)."""
        ref, node = self._as_window(addrs, 8), self.nodes.get(node_id)
        if ref is None or node is None or ref.window.base % 8:
            return None  # the slots are whole words apart: one misaligned, all are
        srt = np.sort(ref.idx)
        if srt.shape[0] > 1 and bool(np.any(srt[1:] == srt[:-1])):
            return None  # duplicates: chained read-modify-writes
        if node.cache.holds_any(ref.addrs()):
            return None
        return ref

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
            for attempt in range(1, REPAIR_MAX_RETRIES + 1):
                victims = device.poisoned_in(offset, size)
                if not victims:
                    return
                if _TEL.enabled:
                    _TEL.count(node_id, _SUB, "fault.retry")
                self._in_repair = True
                try:
                    repaired = handler(region.base + victims[0], node_id)
                finally:
                    self._in_repair = False
                if node is not None:
                    self._charge(node, attempt, REPAIR_BACKOFF_NS)
                if not repaired:
                    break
            if not device.is_poisoned(offset, size):
                return
        if _TEL.enabled:
            _TEL.count(node_id, _SUB, "fault.ue_raised")
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

    __slots__ = ("machine", "node_id", "node", "_clock")

    def __init__(self, machine: RackMachine, node_id: int) -> None:
        self.machine = machine
        self.node_id = node_id
        # a Node and its clock live as long as the machine (crash and
        # restart keep both), so time goes to the clock directly
        self.node: Node = machine.nodes[node_id]
        self._clock = self.node.clock

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

    def store_many(self, ref: SlotRef, table) -> None:
        self.machine.store_many(self.node_id, ref, table)

    def atomic_store_many(self, addrs: Sequence[int], value: int) -> None:
        self.machine.atomic_store_many(self.node_id, addrs, value)

    # atomics
    def cas(self, addr: int, expected: int, new: int) -> Tuple[bool, int]:
        return self.machine.atomic_cas(self.node_id, addr, expected, new)

    def fetch_add(self, addr: int, delta: int) -> int:
        return self.machine.atomic_fetch_add(self.node_id, addr, delta)

    def swap(self, addr: int, new: int) -> int:
        return self.machine.atomic_swap(self.node_id, addr, new)

    def atomic_load(self, addr: int) -> int:
        return self.machine.atomic_load(self.node_id, addr)

    def atomic_store(self, addr: int, value: int) -> None:
        self.machine.atomic_store(self.node_id, addr, value)

    # maintenance
    def flush(self, addr: int, size: int) -> int:
        return self.machine.flush(self.node_id, addr, size)

    def invalidate(self, addr: int, size: int) -> int:
        return self.machine.invalidate(self.node_id, addr, size)

    def fence(self) -> None:
        self.machine.fence(self.node_id)

    # time
    def now(self) -> float:
        return self._clock._now_ns

    def advance(self, ns: float) -> float:
        clock = self._clock
        if not ns >= 0:  # negative or NaN: SimClock.advance refuses it, in one frame
            return clock.advance(ns)
        clock._now_ns += ns
        return clock._now_ns

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
