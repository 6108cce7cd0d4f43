"""Per-node software TLBs and the rack-wide shootdown protocol (§3.3).

The shared page table lives in global memory, so every hardware walk
pays interconnect latency; each node therefore caches translations in a
private TLB.  Unmapping or permission-tightening must invalidate those
caches rack-wide.  Without cross-node IPIs (§5 lists them as an open
hardware problem), FlacOS uses a shared-memory doorbell: the initiator
bumps the page table's generation and publishes the affected range, and
every node acknowledges at its next safe point by flushing matching TLB
entries and writing its ack word.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from ...rack.machine import NodeContext
from ...telemetry import TELEMETRY as _TEL
from ..params import OsCosts
from .page_table import SharedPageTable, Translation, vpn_of

_SUB = "core.memory"
#: translations one node's TLB holds before evicting the least recent
TLB_CAPACITY = 1024


@dataclass
class TlbStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    shootdowns_served: int = 0


class Tlb:
    """One node's translation cache for one (or more) address spaces.

    Entries are keyed by (asid, vpn); an LRU of :data:`TLB_CAPACITY` entries.
    """

    def __init__(self, node_id: int, costs: Optional[OsCosts] = None) -> None:
        self.node_id = node_id
        self.costs = costs or OsCosts()
        self._entries: "OrderedDict[tuple, Translation]" = OrderedDict()
        self.stats = TlbStats()

    def lookup(self, ctx: NodeContext, asid: int, vaddr: int) -> Optional[Translation]:
        key = (asid, vpn_of(vaddr))
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            if _TEL.enabled:
                _TEL.registry.inc(self.node_id, _SUB, "tlb.hit")
            ctx.advance(self.costs.tlb_hit_ns)
            return entry
        self.stats.misses += 1
        if _TEL.enabled:
            _TEL.registry.inc(self.node_id, _SUB, "tlb.miss")
        return None

    def fill(self, asid: int, vaddr: int, translation: Translation) -> None:
        key = (asid, vpn_of(vaddr))
        self._entries[key] = translation
        self._entries.move_to_end(key)
        while len(self._entries) > TLB_CAPACITY:
            self._entries.popitem(last=False)

    def invalidate(self, ctx: NodeContext, asid: int, vaddr: int) -> bool:
        dropped = self._entries.pop((asid, vpn_of(vaddr)), None) is not None
        if dropped:
            self.stats.invalidations += 1
            ctx.advance(self.costs.tlb_invalidate_ns)
        return dropped

    def invalidate_asid(self, ctx: NodeContext, asid: int) -> int:
        victims = [k for k in self._entries if k[0] == asid]
        for key in victims:
            del self._entries[key]
        self.stats.invalidations += len(victims)
        ctx.advance(self.costs.tlb_invalidate_ns * max(1, len(victims)))
        return len(victims)

    def flush_all(self, ctx: NodeContext) -> int:
        n = len(self._entries)
        self._entries.clear()
        self.stats.invalidations += n
        ctx.advance(self.costs.tlb_invalidate_ns * max(1, n))
        return n

    def resident(self) -> int:
        return len(self._entries)


class TlbShootdown:
    """Shared-memory shootdown doorbell.

    Layout at ``base``::

        +0            request generation
        +8            asid of the pending request
        +16           start vpn (inclusive); 0 with end 2^48 means full flush
        +24           end vpn (exclusive)
        +32 .. +32+8n per-node ack generation
    """

    FULL_RANGE = (0, 1 << 48)

    def __init__(self, base: int, n_nodes: int) -> None:
        self.base = base
        self.n_nodes = n_nodes

    @staticmethod
    def region_size(n_nodes: int) -> int:
        return 32 + 8 * n_nodes

    def format(self, ctx: NodeContext) -> "TlbShootdown":
        for off in range(0, self.region_size(self.n_nodes), 8):
            ctx.atomic_store(self.base + off, 0)
        return self

    # -- initiator side ------------------------------------------------------------

    def request(
        self, ctx: NodeContext, asid: int, start_vpn: int = 0, end_vpn: int = 1 << 48
    ) -> int:
        """Publish a shootdown request; returns its generation."""
        ctx.atomic_store(self.base + 8, asid)
        ctx.atomic_store(self.base + 16, start_vpn)
        ctx.atomic_store(self.base + 24, end_vpn)
        gen = ctx.fetch_add(self.base, 1) + 1
        # the initiator acks itself immediately (it flushes its own TLB)
        ctx.atomic_store(self._ack_addr(ctx.node_id), gen)
        if _TEL.enabled:
            _TEL.registry.inc(ctx.node_id, _SUB, "tlb.shootdown.requested")
        return gen

    def acked_by_all(self, ctx: NodeContext, gen: int, alive_nodes: Optional[List[int]] = None) -> bool:
        nodes = alive_nodes if alive_nodes is not None else range(self.n_nodes)
        return all(ctx.atomic_load(self._ack_addr(n)) >= gen for n in nodes)

    # -- responder side ---------------------------------------------------------------

    def service(self, ctx: NodeContext, tlb: Tlb) -> bool:
        """Check for a pending request and ack it; returns True if served.

        Called at every node's safe points (syscall return, idle loop).
        """
        gen = ctx.atomic_load(self.base)
        if ctx.atomic_load(self._ack_addr(ctx.node_id)) >= gen:
            return False
        asid = ctx.atomic_load(self.base + 8)
        start_vpn = ctx.atomic_load(self.base + 16)
        end_vpn = ctx.atomic_load(self.base + 24)
        if (start_vpn, end_vpn) == self.FULL_RANGE:
            tlb.invalidate_asid(ctx, asid)
        else:
            for vpn in range(start_vpn, end_vpn):
                tlb.invalidate(ctx, asid, vpn << 12)
        tlb.stats.shootdowns_served += 1
        if _TEL.enabled:
            _TEL.registry.inc(ctx.node_id, _SUB, "tlb.shootdown.served")
        ctx.atomic_store(self._ack_addr(ctx.node_id), gen)
        return True

    def _ack_addr(self, node_id: int) -> int:
        if not 0 <= node_id < self.n_nodes:
            raise ValueError(f"node {node_id} outside shootdown domain")
        return self.base + 32 + node_id * 8


class CachedWalker:
    """TLB-fronted translation: the fast path every access uses."""

    def __init__(self, page_table: SharedPageTable, tlb: Tlb, asid: int) -> None:
        self.page_table = page_table
        self.tlb = tlb
        self.asid = asid

    def translate(self, ctx: NodeContext, vaddr: int, write: bool = False) -> Translation:
        cached = self.tlb.lookup(ctx, self.asid, vaddr)
        if cached is not None and (not write or cached.writable):
            return cached
        if _TEL.enabled:
            before = ctx.now()
            translation = self.page_table.translate(ctx, vaddr, write=write)
            _TEL.registry.inc(ctx.node_id, _SUB, "ptwalk")
            _TEL.registry.observe(
                ctx.node_id, _SUB, "ptwalk_ns", ctx.now() - before
            )
        else:
            translation = self.page_table.translate(ctx, vaddr, write=write)
        self.tlb.fill(self.asid, vaddr, translation)
        return translation
