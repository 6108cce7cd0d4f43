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


class VersionChain:
    """Multi-version object keeping the last ``depth`` versions reachable.

    Used by checkpointing (§3.2): a checkpoint pins an epoch and walks
    the chain for the version that was current at pin time, while writers
    keep publishing.  Chain entries are heap blocks::

        +0   previous version address
        +8   publish epoch
        +16  payload length (u32) + pad
        +24  payload
    """

    _HDR = 24

    def __init__(self, ptr_addr: int, heap: SharedHeap, reclaimer: EpochReclaimer, depth: int = 4) -> None:
        if depth < 1:
            raise ValueError("chain depth must be >= 1")
        self.ptr_addr = ptr_addr
        self.heap = heap
        self.reclaimer = reclaimer
        self.depth = depth

    def format(self, ctx: NodeContext) -> "VersionChain":
        ctx.atomic_store(self.ptr_addr, 0)
        return self

    def publish(self, ctx: NodeContext, payload: bytes) -> int:
        head = ctx.atomic_load(self.ptr_addr)
        epoch = self.reclaimer.current_epoch(ctx)
        block = self.heap.alloc(ctx, self._HDR + len(payload))
        header = struct.pack("<QQI4x", head, epoch, len(payload))
        ctx.store(block, header + payload)
        ctx.flush(block, self._HDR + len(payload))
        ctx.fence()
        ctx.atomic_store(self.ptr_addr, block)
        self._trim(ctx, block)
        return block

    def read_latest(self, ctx: NodeContext) -> Optional[bytes]:
        head = ctx.atomic_load(self.ptr_addr)
        return self._payload(ctx, head) if head else None

    def read_at_epoch(self, ctx: NodeContext, epoch: int) -> Optional[bytes]:
        """Newest version published at or before ``epoch`` (checkpoint read)."""
        cursor = ctx.atomic_load(self.ptr_addr)
        while cursor:
            prev, published = self._header(ctx, cursor)
            if published <= epoch:
                return self._payload(ctx, cursor)
            cursor = prev
        return None

    def chain_length(self, ctx: NodeContext) -> int:
        n = 0
        cursor = ctx.atomic_load(self.ptr_addr)
        while cursor:
            n += 1
            cursor = self._header(ctx, cursor)[0]
        return n

    def _trim(self, ctx: NodeContext, head: int) -> None:
        """Retire versions beyond ``depth`` (they stay until epoch-safe)."""
        cursor = head
        for _ in range(self.depth - 1):
            prev = self._header(ctx, cursor)[0]
            if prev == 0:
                return
            cursor = prev
        # cursor is the oldest kept version; cut the chain after it
        tail = self._header(ctx, cursor)[0]
        if tail:
            ctx.store(cursor, struct.pack("<Q", 0))
            ctx.flush(cursor, 8)
            while tail:
                older = self._header(ctx, tail)[0]
                self.reclaimer.retire(ctx, tail, lambda addr: self.heap.free(ctx, addr))
                tail = older

    def _header(self, ctx: NodeContext, block: int) -> tuple:
        ctx.invalidate(block, 16)
        return struct.unpack("<QQ", ctx.load(block, 16))

    def _payload(self, ctx: NodeContext, block: int) -> bytes:
        ctx.invalidate(block + 16, 8)
        length = struct.unpack("<I", ctx.load(block + 16, 4))[0]
        ctx.invalidate(block + self._HDR, length)
        return ctx.load(block + self._HDR, length)
