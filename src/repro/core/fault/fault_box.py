"""Fault box: vertical fault isolation (§3.6).

Existing systems aggregate state *horizontally*: all page tables in one
place, all sockets in another — so one memory fault in a shared pool can
touch many applications, and recovering one app means poking many
subsystems.  A fault box instead consolidates **one application's**
state across every subsystem it touches — page table, mapped pages,
communication buffers, stack/heap regions, and a context record — so
the whole set can be snapshot, restored, or migrated as a unit, and a
fault maps to exactly one box.

The box is assembled from *capture sources*: each registered component
contributes (region ranges + opaque snapshot bytes).  Blast-radius
queries answer "which boxes does this faulty address hit?" — the number
the E6 ablation reports.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...rack.machine import NodeContext
from ..memory import AddressSpace, MemorySystem, PAGE_SIZE, Placement
from ..params import OsCosts


@dataclass
class BoxSnapshot:
    """A consistent capture of one application's vertical state."""

    box_id: int
    taken_at_ns: float
    #: vaddr -> page bytes for every resident page
    pages: Dict[int, bytes]
    #: replicated VMA layout, pickled
    vma_blob: bytes
    #: context record (registers, program state) as given by the app
    context: bytes
    #: ipc buffer payloads owned by the box: list of (tag, bytes)
    ipc_payloads: List[Tuple[str, bytes]]

    def total_bytes(self) -> int:
        return (
            sum(len(p) for p in self.pages.values())
            + len(self.vma_blob)
            + len(self.context)
            + sum(len(b) for _, b in self.ipc_payloads)
        )


@dataclass
class FaultBox:
    """The unit of isolation: one app, all its state, one handle."""

    box_id: int
    name: str
    aspace: AddressSpace
    home_node: int
    context: bytes = b""
    #: extra global-memory ranges the app owns (ipc rings, buffers):
    #: list of (tag, base, size)
    ipc_regions: List[Tuple[str, int, int]] = field(default_factory=list)
    criticality: int = 1  # 0 = best effort .. 3 = critical
    failed: bool = False

    def owns_ipc_address(self, addr: int) -> bool:
        for _, base, size in self.ipc_regions:
            if base <= addr < base + size:
                return True
        return False


class FaultBoxManager:
    """Creates boxes, snapshots them, restores/migrates them."""

    def __init__(self, memsys: MemorySystem, costs: OsCosts = OsCosts()) -> None:
        self.memsys = memsys
        self.costs = costs
        self.boxes: Dict[int, FaultBox] = {}
        self._snapshots: Dict[int, BoxSnapshot] = {}
        self._next_id = 1

    # -- lifecycle --------------------------------------------------------------------

    def create_box(
        self, ctx: NodeContext, name: str, aspace: Optional[AddressSpace] = None, criticality: int = 1
    ) -> FaultBox:
        aspace = aspace or self.memsys.create_address_space(ctx)
        box = FaultBox(
            box_id=self._next_id,
            name=name,
            aspace=aspace,
            home_node=ctx.node_id,
            criticality=criticality,
        )
        self._next_id += 1
        self.boxes[box.box_id] = box
        return box

    # -- snapshot / restore -------------------------------------------------------------

    def snapshot(self, ctx: NodeContext, box: FaultBox) -> BoxSnapshot:
        """Capture the box's complete vertical state in one pass."""
        ctx.advance(self.costs.context_switch_ns)
        pages: Dict[int, bytes] = {}
        for vpn, translation in box.aspace.page_table.entries(ctx):
            ctx.flush(translation.frame_addr, PAGE_SIZE)
            pages[vpn << 12] = ctx.load(translation.frame_addr, PAGE_SIZE, bypass_cache=True)
        local_ptes = box.aspace._local_ptes.get(ctx.node_id, {})
        for vpn, translation in local_ptes.items():
            ctx.flush(translation.frame_addr, PAGE_SIZE)
            pages[vpn << 12] = ctx.load(translation.frame_addr, PAGE_SIZE, bypass_cache=True)
        replica = box.aspace._vmas.replica(ctx)
        replica.read(ctx, lambda s: None)
        vma_blob = pickle.dumps(list(replica.state))
        ipc_payloads = [
            (tag, ctx.load(base, size, bypass_cache=True))
            for tag, base, size in box.ipc_regions
        ]
        snapshot = BoxSnapshot(
            box_id=box.box_id,
            taken_at_ns=ctx.now(),
            pages=pages,
            vma_blob=vma_blob,
            context=box.context,
            ipc_payloads=ipc_payloads,
        )
        self._snapshots[box.box_id] = snapshot
        return snapshot

    def latest_snapshot(self, box: FaultBox) -> Optional[BoxSnapshot]:
        return self._snapshots.get(box.box_id)

    def restore(self, ctx: NodeContext, box: FaultBox, snapshot: Optional[BoxSnapshot] = None) -> int:
        """Write a snapshot's state back; returns pages restored.

        Restoration targets the restoring node: every page is faulted
        into a fresh frame there (old frames may be poisoned or on a
        dead node — exactly the cases we restore for).
        """
        snapshot = snapshot or self._snapshots.get(box.box_id)
        if snapshot is None:
            raise KeyError(f"box {box.box_id} has no snapshot")
        ctx.advance(self.costs.context_switch_ns)
        self.memsys.install(ctx, box.aspace)
        # tear down surviving translations: their frames may be poisoned,
        # freed, or in a dead node's DRAM — restoration refaults fresh ones
        for vaddr in snapshot.pages:
            translation = box.aspace.page_table.unmap(ctx, vaddr)
            if translation is not None:
                try:
                    box.aspace._release_frame(
                        ctx, translation.frame_addr, vaddr, Placement.GLOBAL
                    )
                except KeyError:
                    pass  # rmap already dropped it (e.g. node crash cleanup)
        box.aspace._local_ptes.clear()
        self.memsys.tlbs[ctx.node_id].invalidate_asid(ctx, box.aspace.asid)
        self.memsys.shootdown.request(ctx, box.aspace.asid)
        restored = 0
        for vaddr, content in snapshot.pages.items():
            box.aspace.write(ctx, vaddr, content)
            box.aspace.publish(ctx, vaddr, len(content))
            restored += 1
        for (tag, base, size), (_, payload) in zip(box.ipc_regions, snapshot.ipc_payloads):
            ctx.store(base, payload, bypass_cache=True)
        box.context = snapshot.context
        box.failed = False
        box.home_node = ctx.node_id
        return restored

    # -- isolation queries -----------------------------------------------------------------

    def boxes_hit_by(self, ctx: NodeContext, addr: int) -> List[FaultBox]:
        """Blast radius of a faulty physical address, in boxes.

        Resolved through the reverse map: one local lookup of the faulty
        frame gives the owning address spaces, hence the owning boxes —
        no shared-memory scan on the recovery path.
        """
        frame = addr & ~(PAGE_SIZE - 1)
        hit_asids = {asid for asid, _ in self.memsys.rmap.refs(frame)}
        hit = [
            box
            for box in self.boxes.values()
            if box.aspace.asid in hit_asids or box.owns_ipc_address(addr)
        ]
        return hit

    def mark_failed(self, box: FaultBox) -> None:
        box.failed = True

    def failed_boxes(self) -> List[FaultBox]:
        return [b for b in self.boxes.values() if b.failed]
