"""Redundancy sources the UE repair pipeline draws from (§3.6).

The :class:`~repro.flacdk.reliability.repair.RepairCoordinator` is
layer-neutral; these adapters give it access to the redundant copies
FlacOS already maintains, in the kernel's priority order:

1. **Partial replica** — the standby copy kept by
   :class:`~repro.core.fault.replication.PartialReplicator` at the last
   sync barrier.  Freshest copy that exists without the application's
   cooperation.
2. **Checkpoint page** — the page's bytes in the box's latest snapshot
   (:class:`~repro.core.fault.fault_box.FaultBoxManager`).
3. **FlacFS block layer** — a *clean* page-cache frame is byte-identical
   to its on-device block, so the block device (journal-protected) can
   regenerate it; dirty frames would resurrect stale data and abstain.

Every source maps the poisoned physical page back to its owner through
the kernel's reverse map — a local lookup, mirroring how blast-radius
queries avoid shared-memory scans on the recovery path.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...flacdk.reliability.repair import RepairSource
from ...rack.machine import NodeContext
from ..fs.filesystem import FlacFS
from ..fs.page_cache import _DIRTY, _PAGE_BITS, PAGE_SIZE
from .fault_box import FaultBox, FaultBoxManager
from .replication import PartialReplicator


def _owning_box_page(
    manager: FaultBoxManager, page_addr: int
) -> List[Tuple[FaultBox, int]]:
    """(box, vaddr) pairs whose state includes physical ``page_addr``."""
    refs = sorted(manager.memsys.rmap.refs(page_addr))
    by_asid = {box.aspace.asid: box for box in manager.boxes.values()}
    out = []
    for asid, vpn in refs:
        box = by_asid.get(asid)
        if box is not None:
            out.append((box, vpn << 12))
    return out


class ReplicaPageSource(RepairSource):
    """Recover from the standby copy of a partially replicated box."""

    name = "partial-replica"

    def __init__(self, manager: FaultBoxManager, replicator: PartialReplicator) -> None:
        self.manager = manager
        self.replicator = replicator

    def recover_page(self, ctx: NodeContext, page_addr: int) -> Optional[bytes]:
        for box, vaddr in _owning_box_page(self.manager, page_addr):
            state = self.replicator.state_of(box)
            if state is None:
                continue
            standby = state.standby_frames.get(vaddr)
            if standby is None:
                continue
            # raises UncorrectableMemoryError if the standby itself is
            # poisoned — the coordinator treats that as an abstention
            return ctx.load(standby, PAGE_SIZE, bypass_cache=True)
        return None


class CheckpointPageSource(RepairSource):
    """Recover from the page's bytes in the box's latest snapshot."""

    name = "checkpoint"

    def __init__(self, manager: FaultBoxManager) -> None:
        self.manager = manager

    def recover_page(self, ctx: NodeContext, page_addr: int) -> Optional[bytes]:
        for box, vaddr in _owning_box_page(self.manager, page_addr):
            snapshot = self.manager.latest_snapshot(box)
            if snapshot is None:
                continue
            content = snapshot.pages.get(vaddr)
            if content is not None:
                # host-side copy: charge the read the snapshot store costs
                ctx.advance(len(content) / 10.0)
                return content
        return None


class FsBlockSource(RepairSource):
    """Recover a *clean* FlacFS page-cache frame from the block device."""

    name = "fs-block"

    def __init__(self, fs: FlacFS) -> None:
        self.fs = fs

    def recover_page(self, ctx: NodeContext, page_addr: int) -> Optional[bytes]:
        for key, value in self.fs.page_cache.tree.items(ctx):
            if value & ~_DIRTY != page_addr:
                continue
            if value & _DIRTY:
                return None  # device copy is stale; resurrect nothing
            file_id = key >> _PAGE_BITS
            page_idx = key & ((1 << _PAGE_BITS) - 1)
            block_no = self.fs.metadata.block_of(ctx, file_id, page_idx)
            if block_no is None:
                return bytes(PAGE_SIZE)  # hole: zero page
            return self.fs.device.read_block(ctx, block_no).ljust(PAGE_SIZE, b"\x00")
        return None
