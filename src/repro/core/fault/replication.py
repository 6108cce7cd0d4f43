"""Partial replication of fault-box state (§3.6, [9, 70]).

A live standby copy of the box's pages is kept in a *different* global
memory region (in a real rack: a different memory device / failure
domain).  Sync points copy only pages dirtied since the last barrier —
Remus-style incremental replication.  Failover promotes the standby
bytes into fresh frames via the normal restore path, with no dependence
on a snapshot being fresh.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional

from ...flacdk.alloc import FrameAllocator
from ...rack.machine import NodeContext
from ..memory import PAGE_SIZE
from .fault_box import BoxSnapshot, FaultBox, FaultBoxManager


@dataclass
class ReplicaState:
    #: vaddr -> standby frame address
    standby_frames: Dict[int, int] = field(default_factory=dict)
    #: vaddr -> content digest at last sync (dirty detection)
    digests: Dict[int, bytes] = field(default_factory=dict)
    syncs: int = 0
    pages_copied: int = 0


class PartialReplicator:
    """Maintains standby copies of selected boxes' pages."""

    def __init__(self, manager: FaultBoxManager, standby_frames: FrameAllocator) -> None:
        self.manager = manager
        self.standby = standby_frames
        self._replicas: Dict[int, ReplicaState] = {}

    def enable(self, box: FaultBox) -> ReplicaState:
        return self._replicas.setdefault(box.box_id, ReplicaState())

    def sync(self, ctx: NodeContext, box: FaultBox) -> int:
        """Barrier: copy pages dirtied since the last sync to standby."""
        state = self._replicas.get(box.box_id)
        if state is None:
            raise KeyError(f"box {box.box_id} is not replicated")
        copied = 0
        for vpn, translation in box.aspace.page_table.entries(ctx):
            vaddr = vpn << 12
            ctx.flush(translation.frame_addr, PAGE_SIZE)
            content = ctx.load(translation.frame_addr, PAGE_SIZE, bypass_cache=True)
            digest = hashlib.blake2b(content, digest_size=16).digest()
            if state.digests.get(vaddr) == digest:
                continue  # clean since last barrier
            frame = state.standby_frames.get(vaddr)
            if frame is None:
                frame = self.standby.alloc(ctx)
                state.standby_frames[vaddr] = frame
            ctx.store(frame, content, bypass_cache=True)
            state.digests[vaddr] = digest
            copied += 1
        state.syncs += 1
        state.pages_copied += copied
        return copied

    def failover(self, ctx: NodeContext, box: FaultBox) -> int:
        """Promote the standby copy: rebuild the box from standby frames."""
        state = self._replicas.get(box.box_id)
        if state is None:
            raise KeyError(f"box {box.box_id} is not replicated")
        pages = {
            vaddr: ctx.load(frame, PAGE_SIZE, bypass_cache=True)
            for vaddr, frame in state.standby_frames.items()
        }
        snapshot = BoxSnapshot(
            box_id=box.box_id,
            taken_at_ns=ctx.now(),
            pages=pages,
            vma_blob=b"",
            context=box.context,
            ipc_payloads=[],
        )
        return self.manager.restore(ctx, box, snapshot)

    def state_of(self, box: FaultBox) -> Optional[ReplicaState]:
        return self._replicas.get(box.box_id)
