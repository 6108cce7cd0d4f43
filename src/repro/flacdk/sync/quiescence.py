"""Quiescence-based synchronisation: RCU over shared memory (§3.2, [49]).

Writers never modify a published object in place.  They allocate a new
version, write and flush it, then atomically swing a pointer cell; the
old version is retired to the epoch reclaimer.  Readers atomically load
the pointer inside an epoch-announced section and invalidate/load the
version's bytes — the paper's observation ([49]) is that this converts
"which cache lines are stale?" into "which versions are still referenced?",
which *is* tractable on non-coherent memory.

Versions are length-prefixed heap blocks::

    +0   payload length (u32) + pad
    +8   payload
"""

from __future__ import annotations

import struct
from typing import Callable, Optional

from ...rack.machine import NodeContext
from ..alloc.object_allocator import SharedHeap
from ..alloc.reclaim import EpochReclaimer

_VERSION_HEADER = 8


class RcuCell:
    """A pointer to the current version of one shared object."""

    def __init__(self, ptr_addr: int, heap: SharedHeap, reclaimer: EpochReclaimer) -> None:
        self.ptr_addr = ptr_addr
        self.heap = heap
        self.reclaimer = reclaimer

    def format(self, ctx: NodeContext) -> "RcuCell":
        ctx.atomic_store(self.ptr_addr, 0)
        return self

    # -- write side --------------------------------------------------------------

    def publish(self, ctx: NodeContext, payload: bytes) -> int:
        """Install a new version; returns its address.

        The displaced version is retired, not freed: readers inside an
        epoch may still hold it.
        """
        version = self._make_version(ctx, payload)
        old = ctx.swap(self.ptr_addr, version)
        if old:
            self.reclaimer.retire(ctx, old, lambda addr: self.heap.free(ctx, addr))
        return version

    def update(self, ctx: NodeContext, fn: Callable[[Optional[bytes]], bytes]) -> bytes:
        """Read-copy-update: derive the new payload from the current one.

        Retries on CAS failure (another writer won the race).
        """
        while True:
            current = ctx.atomic_load(self.ptr_addr)
            snapshot = self._read_version(ctx, current) if current else None
            new_payload = fn(snapshot)
            version = self._make_version(ctx, new_payload)
            swapped, _ = ctx.cas(self.ptr_addr, current, version)
            if swapped:
                if current:
                    self.reclaimer.retire(ctx, current, lambda addr: self.heap.free(ctx, addr))
                return new_payload
            self.heap.free(ctx, version)  # lost the race; ours was never visible

    # -- read side ------------------------------------------------------------------

    def read(self, ctx: NodeContext) -> Optional[bytes]:
        """Epoch-protected snapshot of the current version (None if empty)."""
        self.reclaimer.enter(ctx)
        try:
            version = ctx.atomic_load(self.ptr_addr)
            if version == 0:
                return None
            return self._read_version(ctx, version)
        finally:
            self.reclaimer.exit(ctx)

    # -- internals ----------------------------------------------------------------------

    def _make_version(self, ctx: NodeContext, payload: bytes) -> int:
        version = self.heap.alloc(ctx, _VERSION_HEADER + len(payload))
        ctx.store(version, struct.pack("<I4x", len(payload)) + payload)
        ctx.flush(version, _VERSION_HEADER + len(payload))
        ctx.fence()
        return version

    def _read_version(self, ctx: NodeContext, version: int) -> bytes:
        ctx.invalidate(version, _VERSION_HEADER)
        length = struct.unpack("<I", ctx.load(version, 4))[0]
        ctx.invalidate(version + _VERSION_HEADER, length)
        return ctx.load(version + _VERSION_HEADER, length)
