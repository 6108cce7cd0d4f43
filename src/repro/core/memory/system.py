"""The FlacOS memory system facade (§3.3).

Owns the global and per-node frame pools, the kernel heap that page
tables are allocated from, per-node TLBs, the shootdown domain, the
rack-wide reverse map, and the deduper.  ``create_address_space`` wires
an :class:`AddressSpace` into all of it.

Note the ownership rule the substrate enforces: a node cannot touch
another node's local memory, so freeing a *local* frame that belongs to
a different node is queued for its owner (delegation) and drained the
next time that owner allocates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ...flacdk.alloc import FrameAllocator, SharedHeap
from ...flacdk.arena import Arena
from ...flacdk.sync import OperationLog
from ...rack.machine import NodeContext, RackMachine
from ..params import OsCosts
from .address_space import AddressSpace
from .dedup import PageDeduper
from .page_table import PAGE_SIZE, SharedPageTable
from .tlb import Tlb, TlbShootdown
from .vma import Placement, ReverseMap

#: the kernel's shared-heap carve-out, and the op-log entries of each
#: address space's VMA replica
KERNEL_HEAP_BYTES = 1 << 22
VMA_LOG_ENTRIES = 256


class MemorySystem:
    """Rack-wide memory management, coordinated with node-local state."""

    def __init__(
        self,
        machine: RackMachine,
        kernel_arena: Arena,
        costs: Optional[OsCosts] = None,
        global_frame_bytes: int = 1 << 23,
        local_frame_bytes: int = 1 << 22,
    ) -> None:
        self.machine = machine
        self.costs = costs or OsCosts()
        boot = machine.context(0)

        self.kernel_heap = SharedHeap(
            kernel_arena.take(KERNEL_HEAP_BYTES, align=64), KERNEL_HEAP_BYTES
        ).format(boot)
        self.global_frames = FrameAllocator(
            kernel_arena.take(global_frame_bytes, align=PAGE_SIZE), global_frame_bytes
        ).format(boot)
        self.local_frames: Dict[int, FrameAllocator] = {}
        self._deferred_local_frees: Dict[int, List[int]] = {}
        for node_id in machine.nodes:
            base = machine.local_base(node_id)
            ctx = machine.context(node_id)
            self.local_frames[node_id] = FrameAllocator(base, local_frame_bytes).format(ctx)
            self._deferred_local_frees[node_id] = []

        self.tlbs: Dict[int, Tlb] = {
            node_id: Tlb(node_id, costs=self.costs)
            for node_id in machine.nodes
        }
        self.shootdown = TlbShootdown(
            kernel_arena.take(TlbShootdown.region_size(len(machine.nodes)), align=8),
            len(machine.nodes),
        ).format(boot)

        self.rmap = ReverseMap()
        self._kernel_arena = kernel_arena
        self._next_asid = 1
        self.address_spaces: Dict[int, AddressSpace] = {}
        self._page_tables: Dict[int, SharedPageTable] = {}
        self.deduper = PageDeduper(
            rmap=self.rmap,
            page_tables=self._page_tables,
            free_frame=lambda ctx, frame: self.global_frames.free(ctx, frame),
        )
        self._file_reader = None
        #: Frames pulled from circulation by proactive evacuation: they
        #: are never freed back to the allocator (a risky frame must not
        #: be handed out again), only counted.
        self.quarantined_frames: Set[int] = set()

    # -- address spaces ---------------------------------------------------------------

    def set_file_reader(self, reader) -> None:
        """Hook the filesystem in for file-backed mappings (set by kernel)."""
        self._file_reader = reader

    def create_address_space(self, ctx: NodeContext) -> AddressSpace:
        asid = self._next_asid
        self._next_asid += 1
        table = SharedPageTable(
            root_ptr_addr=self._kernel_arena.take(8, align=8),
            generation_addr=self._kernel_arena.take(8, align=8),
            heap=self.kernel_heap,
        ).format(ctx)
        log_base = self._kernel_arena.take(
            OperationLog.region_size(VMA_LOG_ENTRIES), align=64
        )
        vma_log = OperationLog(log_base, VMA_LOG_ENTRIES).format(ctx)
        aspace = AddressSpace(
            asid=asid,
            page_table=table,
            vma_log=vma_log,
            frame_source=self._alloc_frame,
            frame_sink=self._free_frame,
            rmap=self.rmap,
            costs=self.costs,
            file_reader=self._file_reader,
        )
        aspace.install(ctx, self.tlbs[ctx.node_id])
        self.address_spaces[asid] = aspace
        self._page_tables[asid] = table
        return aspace

    def install(self, ctx: NodeContext, aspace: AddressSpace) -> None:
        """Run an existing address space on another node (rack threading)."""
        aspace.install(ctx, self.tlbs[ctx.node_id])

    def destroy_address_space(self, ctx: NodeContext, aspace: AddressSpace) -> None:
        for vma in list(self._vma_snapshot(ctx, aspace)):
            aspace.munmap(ctx, vma.start, vma.length)
        self.address_spaces.pop(aspace.asid, None)
        self._page_tables.pop(aspace.asid, None)

    def _vma_snapshot(self, ctx: NodeContext, aspace: AddressSpace):
        replica = aspace._vmas.replica(ctx)
        replica.read(ctx, lambda s: None)
        return list(replica.state)

    # -- shootdown ---------------------------------------------------------------------

    def unmap_range(
        self,
        ctx: NodeContext,
        aspace: AddressSpace,
        start: int,
        length: int,
        responders: Optional[List[NodeContext]] = None,
    ) -> int:
        """munmap + rack-wide TLB shootdown.

        ``responders`` are the other nodes' contexts; the simulator
        drives their ack step here (on hardware they interrupt).
        """
        torn = aspace.munmap(ctx, start, length)
        self.tlbs[ctx.node_id].invalidate_asid(ctx, aspace.asid)
        gen = self.shootdown.request(
            ctx, aspace.asid, start >> 12, (start + length + PAGE_SIZE - 1) >> 12
        )
        for responder in responders or []:
            self.shootdown.service(responder, self.tlbs[responder.node_id])
        alive = [n for n, node in self.machine.nodes.items() if node.alive]
        if responders is not None and not self.shootdown.acked_by_all(ctx, gen, alive):
            raise RuntimeError("TLB shootdown not acknowledged by all live nodes")
        return torn

    # -- frames ---------------------------------------------------------------------------

    def _alloc_frame(self, ctx: NodeContext, placement: Placement) -> int:
        if placement is Placement.GLOBAL:
            return self.global_frames.alloc(ctx)
        self._drain_deferred(ctx)
        return self.local_frames[ctx.node_id].alloc(ctx)

    def _free_frame(self, ctx: NodeContext, frame: int, placement: Placement) -> None:
        if placement is Placement.GLOBAL or self.machine.is_global_addr(frame):
            self.global_frames.free(ctx, frame)
            return
        owner = self._local_owner(frame)
        if owner == ctx.node_id:
            self.local_frames[owner].free(ctx, frame)
        else:
            # cannot touch another node's bitmap: delegate to the owner
            self._deferred_local_frees[owner].append(frame)

    def _drain_deferred(self, ctx: NodeContext) -> None:
        pending = self._deferred_local_frees[ctx.node_id]
        while pending:
            self.local_frames[ctx.node_id].free(ctx, pending.pop())

    def _local_owner(self, frame: int) -> int:
        from ...rack.params import LOCAL_STRIDE

        return frame // LOCAL_STRIDE

    # -- proactive evacuation -----------------------------------------------------------

    def migrate_global_page(self, ctx: NodeContext, frame: int) -> Optional[int]:
        """Move a mapped global frame's content to a fresh frame.

        The *prevent* arm of the self-healing loop: the failure
        predictor flags a frame whose correctable-error density says it
        is about to fail, and this relocates every mapping off it while
        the bytes are still readable.  Returns the new frame, or None
        when the address is not a mapped global frame (page-cache frames
        and free frames are not ours to move).

        The old frame is **quarantined**, not freed — handing a dying
        frame back to the allocator would just move the fault to the
        next tenant.
        """
        page = frame & ~(PAGE_SIZE - 1)
        if not self.machine.is_global_addr(page):
            return None
        refs = sorted(self.rmap.refs(page))
        if not refs:
            return None
        content = ctx.load(page, PAGE_SIZE, bypass_cache=True)
        fresh = self.global_frames.alloc(ctx)
        ctx.store(fresh, content, bypass_cache=True)
        moved = 0
        touched_asids = []
        for asid, vpn in refs:
            table = self._page_tables.get(asid)
            if table is None:
                continue
            vaddr = vpn << 12
            translation = table.try_translate(ctx, vaddr)
            if translation is None or translation.frame_addr != page:
                continue  # LOCAL-placement ref or stale rmap entry
            table.map(ctx, vaddr, fresh, translation.flags)
            self.rmap.add(fresh, asid, vpn)
            self.rmap.remove(page, asid, vpn)
            touched_asids.append(asid)
            moved += 1
        if not moved:
            self.global_frames.free(ctx, fresh)
            return None
        # cached translations (every node) are stale: full shootdown
        for asid in set(touched_asids):
            self.tlbs[ctx.node_id].invalidate_asid(ctx, asid)
            self.shootdown.request(ctx, asid)
            for responder in self._other_contexts(ctx):
                self.shootdown.service(responder, self.tlbs[responder.node_id])
        if self.rmap.refcount(page) == 0:
            self.quarantined_frames.add(page)
        return fresh

    # -- dedup ------------------------------------------------------------------------------

    def dedup_global_frames(
        self, ctx: NodeContext, responders: Optional[List[NodeContext]] = None
    ) -> int:
        """Run one dedup pass over every mapped global frame.

        PTE rewrites make cached translations (including writable ones)
        stale, so a full-ASID shootdown runs for each touched address
        space before this returns.
        """
        frames = [f for f in self.rmap.frames() if self.machine.is_global_addr(f)]
        merged = self.deduper.scan(ctx, frames)
        touched = self.deduper.stats.touched_asids
        self.deduper.stats.touched_asids = set()
        for asid in touched:
            self.tlbs[ctx.node_id].invalidate_asid(ctx, asid)
            self.shootdown.request(ctx, asid)
            for responder in responders or self._other_contexts(ctx):
                self.shootdown.service(responder, self.tlbs[responder.node_id])
        return merged

    def _other_contexts(self, ctx: NodeContext) -> List[NodeContext]:
        return [
            self.machine.context(n)
            for n, node in self.machine.nodes.items()
            if n != ctx.node_id and node.alive
        ]

    # -- stats -------------------------------------------------------------------------------

    def frames_in_use(self, ctx: NodeContext) -> Dict[str, int]:
        out = {"global": self.global_frames.n_frames - self.global_frames.free_frames(ctx)}
        fa = self.local_frames[ctx.node_id]
        out[f"local{ctx.node_id}"] = fa.n_frames - fa.free_frames(ctx)
        return out
