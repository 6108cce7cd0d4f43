"""Shared operation log: the backbone of replication-based sync (§3.2).

Writers on any node reserve a slot with one atomic fetch-add, write the
payload with cached stores, flush, and only then set the slot's commit
word with a cache-bypassing atomic store.  Readers poll commit words
atomically and invalidate/load payloads, so the log is correct on
non-coherent memory by construction.

Each entry carries the producer's simulated timestamp; consumers sync
their clocks to it, preserving causality in the cost model.

Layout at ``base``::

    +0    magic
    +8    tail (entries reserved so far)
    +16   capacity (entries)
    +24   entry payload capacity (bytes)
    +64   entries

Entry layout::

    +0    commit word (0 = in flight, index+1 = committed)
    +8    producer timestamp (f64 bits)
    +16   payload length (u32) + pad
    +24   payload
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional, Tuple

import numpy as np

from ...rack.machine import NodeContext

_MAGIC = 0x10C_0F_0B5
_HEADER = 64
_ENTRY_META = 24


class LogError(Exception):
    pass


class LogFullError(LogError):
    """The log ran out of slots; compact (reset) before appending more."""


class OperationLog:
    """A bounded, append-only multi-producer log in shared memory."""

    def __init__(self, base: int, capacity: int, payload_capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("log capacity must be >= 1")
        if payload_capacity < 1:
            raise ValueError("payload capacity must be >= 1")
        self.base = base
        self.capacity = capacity
        self.payload_capacity = payload_capacity
        self.entry_size = _align8(_ENTRY_META + payload_capacity)

    @staticmethod
    def region_size(capacity: int, payload_capacity: int = 256) -> int:
        return _HEADER + capacity * _align8(_ENTRY_META + payload_capacity)

    def format(self, ctx: NodeContext) -> "OperationLog":
        ctx.atomic_store(self.base + 8, 0)
        ctx.atomic_store(self.base + 16, self.capacity)
        ctx.atomic_store(self.base + 24, self.payload_capacity)
        ctx.atomic_store_many(self._entry_addrs(self.capacity), 0)
        ctx.atomic_store(self.base, _MAGIC)
        return self

    # -- producing ---------------------------------------------------------------

    def append(self, ctx: NodeContext, payload: bytes) -> int:
        """Append one entry; returns its index."""
        if len(payload) > self.payload_capacity:
            raise LogError(
                f"payload of {len(payload)} B exceeds entry capacity {self.payload_capacity}"
            )
        idx = ctx.fetch_add(self.base + 8, 1)
        if idx >= self.capacity:
            raise LogFullError(f"log at {self.base:#x} is full ({self.capacity} entries)")
        entry = self._entry_addr(idx)
        meta = struct.pack("<dI4x", ctx.now(), len(payload))
        ctx.store(entry + 8, meta + payload)
        ctx.flush(entry + 8, len(meta) + len(payload))
        ctx.fence()
        ctx.atomic_store(entry, idx + 1)  # commit
        return idx

    # -- consuming -----------------------------------------------------------------

    def read(self, ctx: NodeContext, idx: int) -> Optional[bytes]:
        """Read entry ``idx``; ``None`` if not yet committed."""
        if not 0 <= idx < self.capacity:
            raise LogError(f"index {idx} outside log of {self.capacity}")
        entry = self._entry_addr(idx)
        if ctx.atomic_load(entry) != idx + 1:
            return None
        meta = _read_fresh(ctx, entry + 8, 16)
        ts, length = struct.unpack("<dI4x", meta)
        payload = _read_fresh(ctx, entry + _ENTRY_META, length)
        ctx.node.clock.sync_to(ts)
        return payload

    def reserved(self, ctx: NodeContext) -> int:
        """Entries reserved so far (some may still be uncommitted)."""
        return ctx.atomic_load(self.base + 8)

    def read_from(self, ctx: NodeContext, start: int) -> Iterator[Tuple[int, bytes]]:
        """Yield committed entries from ``start`` until the first gap."""
        idx = start
        while idx < self.capacity:
            payload = self.read(ctx, idx)
            if payload is None:
                return
            yield idx, payload
            idx += 1

    # -- compaction --------------------------------------------------------------------

    def reset(self, ctx: NodeContext) -> None:
        """Empty the log.  Caller must ensure every replica has applied
        all entries (see NodeReplication.compact)."""
        used = min(self.reserved(ctx), self.capacity)
        ctx.atomic_store_many(self._entry_addrs(used), 0)
        ctx.atomic_store(self.base + 8, 0)

    def _entry_addr(self, idx: int) -> int:
        return self.base + _HEADER + idx * self.entry_size

    def _entry_addrs(self, n: int) -> np.ndarray:
        """The first ``n`` entries' commit words, as one address vector."""
        return self.base + _HEADER + np.arange(n, dtype=np.int64) * self.entry_size


def _read_fresh(ctx: NodeContext, addr: int, size: int) -> bytes:
    ctx.invalidate(addr, size)
    return ctx.load(addr, size)


def _align8(value: int) -> int:
    return (value + 7) & ~7
