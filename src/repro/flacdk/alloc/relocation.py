"""Runtime object movement: handles, relocation, and memory tiering (§3.2).

Objects that may move are reached through a :class:`HandleTable` — an
array of address cells in shared memory.  Relocating an object copies its
bytes to a new allocation and CASes the handle, so concurrent readers on
other nodes either see the old or the new location, never a torn pointer.
The tierer uses the same mechanism to demote cold objects from fast local
heaps to global memory and promote hot ones back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ...rack.machine import NodeContext
from .object_allocator import SharedHeap


class HandleError(Exception):
    pass


class HandleTable:
    """handle index -> object address, stored as atomic cells.

    Slot 0 of the table is a bump cursor for handle allocation; handles
    start at 1.  A handle holding address 0 is free/dead.
    """

    def __init__(self, base: int, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("handle table needs capacity >= 1")
        self.base = base
        self.capacity = capacity

    def format(self, ctx: NodeContext) -> "HandleTable":
        # cursor (slot 0) and every handle slot
        ctx.atomic_store_many(range(self.base, self.base + (self.capacity + 1) * 8, 8), 0)
        return self

    def create(self, ctx: NodeContext, addr: int) -> int:
        handle = ctx.fetch_add(self.base, 1) + 1
        if handle > self.capacity:
            raise HandleError("handle table full")
        ctx.atomic_store(self._slot(handle), addr)
        return handle

    def resolve(self, ctx: NodeContext, handle: int) -> int:
        addr = ctx.atomic_load(self._slot(handle))
        if addr == 0:
            raise HandleError(f"dead handle {handle}")
        return addr

    def repoint(self, ctx: NodeContext, handle: int, old_addr: int, new_addr: int) -> bool:
        swapped, _ = ctx.cas(self._slot(handle), old_addr, new_addr)
        return swapped

    def _slot(self, handle: int) -> int:
        if not 1 <= handle <= self.capacity:
            raise HandleError(f"handle {handle} out of range")
        return self.base + handle * 8


@dataclass
class RelocationStats:
    moved: int = 0
    bytes_copied: int = 0
    failed_races: int = 0


class Relocator:
    """Moves handle-addressed objects between heaps/addresses."""

    def __init__(self, handles: HandleTable) -> None:
        self.handles = handles
        self.stats = RelocationStats()

    def relocate(
        self,
        ctx: NodeContext,
        handle: int,
        size: int,
        dst_heap: SharedHeap,
        src_heap: Optional[SharedHeap] = None,
    ) -> int:
        """Copy the object behind ``handle`` into ``dst_heap``.

        Returns the new address.  The old allocation is freed when
        ``src_heap`` is given, or left to the caller otherwise.
        """
        old_addr = self.handles.resolve(ctx, handle)
        data = ctx.load(old_addr, size)
        new_addr = dst_heap.alloc(ctx, size)
        ctx.store(new_addr, data)
        ctx.flush(new_addr, size)
        if not self.handles.repoint(ctx, handle, old_addr, new_addr):
            # someone else moved it first; roll back our copy
            dst_heap.free(ctx, new_addr)
            self.stats.failed_races += 1
            return self.handles.resolve(ctx, handle)
        self.stats.moved += 1
        self.stats.bytes_copied += size
        if src_heap is not None:
            src_heap.free(ctx, old_addr)
        return new_addr


class MemoryTierer:
    """Hotness-driven promotion/demotion between two heaps.

    ``hot_heap`` would typically sit in node-local memory and
    ``cold_heap`` in global memory; the tierer keeps objects above the
    threshold hot-resident and demotes the rest.
    """

    def __init__(
        self,
        relocator: Relocator,
        hot_heap: SharedHeap,
        cold_heap: SharedHeap,
        hot_threshold: float = 1.0,
    ) -> None:
        self.relocator = relocator
        self.hot_heap = hot_heap
        self.cold_heap = cold_heap
        self.hot_threshold = hot_threshold
        #: handle -> (size, hotness EWMA, currently_hot)
        self._tracked: Dict[int, List] = {}

    def track(self, handle: int, size: int, hot: bool) -> None:
        self._tracked[handle] = [size, 0.0, hot]

    def record_access(self, handle: int) -> None:
        entry = self._tracked.get(handle)
        if entry is None:
            raise HandleError(f"handle {handle} not tracked")
        entry[1] = 0.8 * entry[1] + 1.0

    def rebalance(self, ctx: NodeContext) -> Dict[str, int]:
        """Apply promotions/demotions; returns counts of each."""
        promoted = demoted = 0
        for handle, entry in self._tracked.items():
            size, hotness, is_hot = entry
            if hotness >= self.hot_threshold and not is_hot:
                self.relocator.relocate(ctx, handle, size, self.hot_heap, src_heap=self.cold_heap)
                entry[2] = True
                promoted += 1
            elif hotness < self.hot_threshold and is_hot:
                self.relocator.relocate(ctx, handle, size, self.cold_heap, src_heap=self.hot_heap)
                entry[2] = False
                demoted += 1
        return {"promoted": promoted, "demoted": demoted}
