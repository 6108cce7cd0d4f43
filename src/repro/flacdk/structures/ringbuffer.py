"""Single-producer single-consumer ring buffer in shared memory (§3.2).

The workhorse of FlacOS IPC: the producer owns the tail, the consumer
owns the head, and each side touches the other's counter only through
atomics.  Payload slots are published with flush and consumed after
invalidate, and every slot carries the producer's timestamp so the
consumer's simulated clock is ordered after the send.

Layout::

    +0    head (consumer cursor, atomic)
    +8    tail (producer cursor, atomic)
    +16   capacity (slots)
    +24   slot payload capacity (bytes)
    +64   slots

Slot layout::

    +0    producer timestamp (f64 bits)
    +8    payload length (u32) + pad
    +16   payload
"""

from __future__ import annotations

import struct
from typing import Optional

from ...rack.machine import NodeContext

_HEADER = 64
#: slot metadata: producer timestamp (f64), payload length (u32), pad
_META = struct.Struct("<dI4x")
_SLOT_META = _META.size
_LEN = struct.Struct("<I")


class RingError(Exception):
    pass


class SpscRing:
    """Bounded SPSC byte-message queue over global memory."""

    def __init__(self, base: int, capacity: int, payload_capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.base = base
        self.capacity = capacity
        self.payload_capacity = payload_capacity
        self.slot_size = _align64(_SLOT_META + payload_capacity)

    @staticmethod
    def region_size(capacity: int, payload_capacity: int = 4096) -> int:
        return _HEADER + capacity * _align64(_SLOT_META + payload_capacity)

    def format(self, ctx: NodeContext) -> "SpscRing":
        ctx.atomic_store(self.base, 0)
        ctx.atomic_store(self.base + 8, 0)
        ctx.atomic_store(self.base + 16, self.capacity)
        ctx.atomic_store(self.base + 24, self.payload_capacity)
        return self

    # -- producer ------------------------------------------------------------------

    def try_push(self, ctx: NodeContext, payload: bytes) -> bool:
        """Enqueue one message; False when the ring is full."""
        if len(payload) > self.payload_capacity:
            raise RingError(
                f"message of {len(payload)} B exceeds slot capacity {self.payload_capacity}"
            )
        tail = ctx.atomic_load(self.base + 8)
        head = ctx.atomic_load(self.base)
        if tail - head >= self.capacity:
            return False
        slot = self._slot(tail)
        ctx.store(slot, _META.pack(ctx.now(), len(payload)) + payload)
        ctx.flush(slot, _SLOT_META + len(payload))
        ctx.fence()
        ctx.atomic_store(self.base + 8, tail + 1)
        return True

    # -- consumer --------------------------------------------------------------------

    def try_pop(self, ctx: NodeContext) -> Optional[bytes]:
        """Dequeue one message; None when the ring is empty."""
        head = ctx.atomic_load(self.base)
        tail = ctx.atomic_load(self.base + 8)
        if head == tail:
            return None
        slot = self._slot(head)
        ctx.invalidate(slot, _SLOT_META)
        ts, length = _META.unpack(ctx.load(slot, _SLOT_META))
        if length > self.payload_capacity:
            raise RingError(
                f"slot at {slot:#x} claims {length} B, over the slot capacity "
                f"{self.payload_capacity} (corrupt ring metadata)"
            )
        ctx.invalidate(slot + _SLOT_META, length)
        payload = ctx.load(slot + _SLOT_META, length)
        ctx.node.clock.sync_to(ts)
        ctx.atomic_store(self.base, head + 1)
        return payload

    def peek_len(self, ctx: NodeContext) -> Optional[int]:
        """Length of the next message without consuming it."""
        head = ctx.atomic_load(self.base)
        if head == ctx.atomic_load(self.base + 8):
            return None
        slot = self._slot(head)
        ctx.invalidate(slot + 8, 4)
        return _LEN.unpack(ctx.load(slot + 8, 4))[0]

    # -- shared ------------------------------------------------------------------------

    def size(self, ctx: NodeContext) -> int:
        return ctx.atomic_load(self.base + 8) - ctx.atomic_load(self.base)

    def is_full(self, ctx: NodeContext) -> bool:
        return self.size(ctx) >= self.capacity

    def _slot(self, cursor: int) -> int:
        return self.base + _HEADER + (cursor % self.capacity) * self.slot_size


def _align64(value: int) -> int:
    return (value + 63) & ~63
