"""Address spaces: shared page table + replicated local VMAs (§3.3).

An address space can be *installed on several nodes at once* — that is
the point of putting its page table in global memory.  Its data-plane
layout follows the paper's split:

* the page table is shared (``SharedPageTable``, global memory) for
  GLOBAL-placement ranges — one translation, every node;
* LOCAL-placement ranges get *per-node private* translations (a node's
  local frames are unreachable from other nodes, so their PTEs would be
  useless rack-wide anyway) — NUMA first-touch, one private copy per
  node that faults the page;
* VMAs are node-local replicas synchronised through the op log
  (mutations logged, lookups local).

``read``/``write`` perform demand paging: they walk the TLB-fronted
table and fault missing pages in, charging the fault handler's software
cost plus the real memory traffic.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ...flacdk.sync import NodeReplication, OperationLog
from ...rack.machine import NodeContext
from ..params import OsCosts
from .page_table import (
    PAGE_SIZE,
    PageFault,
    ProtectionFault,
    PTE_COW,
    PTE_DIRTY,
    PTE_GLOBAL,
    PTE_WRITE,
    SharedPageTable,
    Translation,
    page_offset,
    vpn_of,
)
from .tlb import CachedWalker, Tlb
from .vma import VMA, Placement, Protection, ReverseMap, VmaSet

#: The user range: mmap places a mapping in its first gap at or after the base.
USER_BASE, USER_LIMIT = 1 << 20, 1 << 47


class SegmentationFault(Exception):
    def __init__(self, asid: int, vaddr: int) -> None:
        super().__init__(f"segfault: asid {asid} has no mapping covering {vaddr:#x}")
        self.asid = asid
        self.vaddr = vaddr


def _apply_vma_op(state: VmaSet, op) -> None:
    verb = op[0]
    if verb == "insert":
        state.insert(VMA(*op[1]))
    elif verb == "remove":
        state.remove(op[1], op[2])
    else:
        raise ValueError(f"unknown VMA op {verb!r}")


class AddressSpace:
    """One process's rack-wide address space."""

    def __init__(
        self,
        asid: int,
        page_table: SharedPageTable,
        vma_log: OperationLog,
        frame_source: Callable[[NodeContext, Placement], int],
        frame_sink: Callable[[NodeContext, int, Placement], None],
        rmap: ReverseMap,
        costs: Optional[OsCosts] = None,
        file_reader: Optional[Callable[[NodeContext, int, int, int], bytes]] = None,
    ) -> None:
        self.asid = asid
        self.page_table = page_table
        self.costs = costs or OsCosts()
        self.rmap = rmap
        self._frame_source = frame_source
        self._frame_sink = frame_sink
        self._file_reader = file_reader
        self._vmas: NodeReplication[VmaSet] = NodeReplication(
            vma_log, factory=VmaSet, apply_fn=_apply_vma_op
        )
        self._walkers: Dict[int, CachedWalker] = {}
        #: node id -> {vpn -> Translation} for LOCAL-placement pages.
        self._local_ptes: Dict[int, Dict[int, Translation]] = {}
        self.fault_count = 0
        self.cow_breaks = 0

    # -- per-node installation -------------------------------------------------------

    def install(self, ctx: NodeContext, tlb: Tlb) -> None:
        """Make this address space runnable on ``ctx``'s node."""
        self._walkers[ctx.node_id] = CachedWalker(self.page_table, tlb, self.asid)

    def walker(self, ctx: NodeContext) -> CachedWalker:
        try:
            return self._walkers[ctx.node_id]
        except KeyError:
            raise RuntimeError(
                f"address space {self.asid} not installed on node {ctx.node_id}"
            ) from None

    # -- mapping API --------------------------------------------------------------------

    def mmap(
        self,
        ctx: NodeContext,
        length: int,
        prot: int = Protection.READ | Protection.WRITE,
        placement: Placement = Placement.GLOBAL,
        backing: Optional[tuple] = None,
    ) -> int:
        """Reserve a range; frames are faulted in on first touch."""
        ctx.advance(self.costs.syscall_ns)
        length = (length + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        replica = self._vmas.replica(ctx)
        replica.read(ctx, lambda s: None)  # sync before choosing a gap
        start = replica.state.gap_after(USER_BASE, length, USER_LIMIT)
        replica.execute(ctx, ("insert", (start, start + length, prot, placement, backing)))
        return start

    def munmap(self, ctx: NodeContext, start: int, length: int) -> int:
        """Unmap a range; returns how many present pages were torn down.

        The caller must follow with a TLB shootdown (the kernel facade
        does this — see MemorySystem.unmap_range).
        """
        ctx.advance(self.costs.syscall_ns)
        length = (length + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        replica = self._vmas.replica(ctx)
        replica.read(ctx, lambda s: None)
        vma = replica.state.find(start)
        if vma is None or vma.start != start or vma.end != start + length:
            raise SegmentationFault(self.asid, start)
        replica.execute(ctx, ("remove", start, start + length))
        torn = 0
        if vma.placement is Placement.LOCAL:
            for node_id, ptes in self._local_ptes.items():
                for vaddr in range(start, start + length, PAGE_SIZE):
                    translation = ptes.pop(vpn_of(vaddr), None)
                    if translation is not None:
                        torn += 1
                        self._release_frame(
                            ctx, translation.frame_addr, vaddr, Placement.LOCAL
                        )
            return torn
        for vaddr in range(start, start + length, PAGE_SIZE):
            translation = self.page_table.unmap(ctx, vaddr)
            if translation is not None:
                torn += 1
                self._release_frame(ctx, translation.frame_addr, vaddr, vma.placement)
        return torn

    def find_vma(self, ctx: NodeContext, vaddr: int) -> Optional[VMA]:
        replica = self._vmas.replica(ctx)
        replica.read(ctx, lambda s: None)
        return replica.state.find(vaddr)

    # -- data access (demand paging) -------------------------------------------------------

    def read(self, ctx: NodeContext, vaddr: int, size: int) -> bytes:
        out = bytearray()
        cursor = vaddr
        remaining = size
        while remaining > 0:
            frame, chunk = self._resolve(ctx, cursor, remaining, write=False)
            out += ctx.load(frame + page_offset(cursor), chunk)
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def write(self, ctx: NodeContext, vaddr: int, data: bytes) -> None:
        cursor = vaddr
        pos = 0
        while pos < len(data):
            frame, chunk = self._resolve(ctx, cursor, len(data) - pos, write=True)
            ctx.store(frame + page_offset(cursor), data[pos : pos + chunk])
            cursor += chunk
            pos += chunk

    def publish(self, ctx: NodeContext, vaddr: int, size: int) -> None:
        """Flush a written range so other nodes (after invalidate) see it."""
        cursor = vaddr
        remaining = size
        while remaining > 0:
            frame, chunk = self._resolve(ctx, cursor, remaining, write=False)
            ctx.flush(frame + page_offset(cursor), chunk)
            cursor += chunk
            remaining -= chunk

    def refresh(self, ctx: NodeContext, vaddr: int, size: int) -> None:
        """Invalidate a range before reading another node's writes."""
        cursor = vaddr
        remaining = size
        while remaining > 0:
            frame, chunk = self._resolve(ctx, cursor, remaining, write=False)
            ctx.invalidate(frame + page_offset(cursor), chunk)
            cursor += chunk
            remaining -= chunk

    # -- fault handling --------------------------------------------------------------------

    def handle_fault(self, ctx: NodeContext, vaddr: int, write: bool) -> int:
        """Service a page fault; returns the (new) frame address."""
        ctx.advance(self.costs.page_fault_ns)
        self.fault_count += 1
        walker = self._walkers.get(ctx.node_id)
        if walker is not None:
            # whatever translation we cached for this page is about to change
            walker.tlb.invalidate(ctx, self.asid, vaddr)
        vma = self.find_vma(ctx, vaddr)
        if vma is None:
            raise SegmentationFault(self.asid, vaddr)
        if write and not vma.prot & Protection.WRITE:
            raise SegmentationFault(self.asid, vaddr)
        if vma.placement is Placement.LOCAL:
            return self._fault_local(ctx, vaddr, vma, write)
        existing = self.page_table.try_translate(ctx, vaddr)
        if existing is not None and write and existing.flags & PTE_COW:
            return self._break_cow(ctx, vaddr, existing.frame_addr, vma)
        frame = self._frame_source(ctx, vma.placement)
        if vma.backing is not None and self._file_reader is not None:
            file_id, base_off = vma.backing
            page_off = (vpn_of(vaddr) - vpn_of(vma.start)) * PAGE_SIZE
            content = self._file_reader(ctx, file_id, base_off + page_off, PAGE_SIZE)
            ctx.store(frame, content.ljust(PAGE_SIZE, b"\x00"), bypass_cache=True)
        else:
            ctx.store(frame, bytes(PAGE_SIZE), bypass_cache=True)  # zero page
        flags = self._pte_flags(vma, write)
        self.page_table.map(ctx, vaddr, frame, flags)
        self.rmap.add(frame, self.asid, vpn_of(vaddr))
        return frame

    def _fault_local(self, ctx: NodeContext, vaddr: int, vma: VMA, write: bool) -> int:
        """NUMA first-touch: give this node its own private frame."""
        ptes = self._local_ptes.setdefault(ctx.node_id, {})
        existing = ptes.get(vpn_of(vaddr))
        if existing is not None:
            return existing.frame_addr  # racing fill on this node
        frame = self._frame_source(ctx, Placement.LOCAL)
        if vma.backing is not None and self._file_reader is not None:
            file_id, base_off = vma.backing
            page_off = (vpn_of(vaddr) - vpn_of(vma.start)) * PAGE_SIZE
            content = self._file_reader(ctx, file_id, base_off + page_off, PAGE_SIZE)
            ctx.store(frame, content.ljust(PAGE_SIZE, b"\x00"), bypass_cache=True)
        else:
            ctx.store(frame, bytes(PAGE_SIZE), bypass_cache=True)
        flags = self._pte_flags(vma, write) & ~PTE_GLOBAL
        translation = Translation(frame_addr=frame, flags=flags)
        ptes[vpn_of(vaddr)] = translation
        self.rmap.add(frame, self.asid, vpn_of(vaddr))
        walker = self._walkers.get(ctx.node_id)
        if walker is not None:
            walker.tlb.fill(self.asid, vaddr, translation)
        return frame

    def _break_cow(self, ctx: NodeContext, vaddr: int, shared_frame: int, vma: VMA) -> int:
        """Copy-on-write: give the writer a private copy."""
        self.cow_breaks += 1
        fresh = self._frame_source(ctx, vma.placement)
        content = ctx.load(shared_frame, PAGE_SIZE, bypass_cache=True)
        ctx.store(fresh, content, bypass_cache=True)
        self.page_table.map(ctx, vaddr, fresh, self._pte_flags(vma, write=True) | PTE_DIRTY)
        self.rmap.add(fresh, self.asid, vpn_of(vaddr))
        remaining = self.rmap.remove(shared_frame, self.asid, vpn_of(vaddr))
        if remaining == 0:
            self._frame_sink(ctx, shared_frame, vma.placement)
        return fresh

    def _resolve(self, ctx: NodeContext, vaddr: int, remaining: int, write: bool) -> tuple:
        """Translate (faulting as needed); returns (frame, usable bytes)."""
        walker = self.walker(ctx)
        try:
            translation = walker.translate(ctx, vaddr, write=write)
            frame = translation.frame_addr
            if write and not translation.writable:
                frame = self.handle_fault(ctx, vaddr, write=True)
        except (PageFault, ProtectionFault):
            local = self._local_ptes.get(ctx.node_id, {}).get(vpn_of(vaddr))
            if local is not None and (not write or local.writable):
                walker.tlb.fill(self.asid, vaddr, local)
                frame = local.frame_addr
            else:
                frame = self.handle_fault(ctx, vaddr, write=write)
        chunk = min(remaining, PAGE_SIZE - page_offset(vaddr))
        return frame, chunk

    def _pte_flags(self, vma: VMA, write: bool) -> int:
        flags = 0
        if vma.prot & Protection.WRITE:
            flags |= PTE_WRITE
        if vma.placement is Placement.GLOBAL:
            flags |= PTE_GLOBAL
        if write:
            flags |= PTE_DIRTY
        return flags

    def _release_frame(self, ctx: NodeContext, frame: int, vaddr: int, placement: Placement) -> None:
        remaining = self.rmap.remove(frame, self.asid, vpn_of(vaddr))
        if remaining == 0:
            self._frame_sink(ctx, frame, placement)
