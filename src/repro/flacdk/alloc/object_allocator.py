"""Object-granularity allocator for rack-shared memory (§3.2).

The heap's entire control state lives *in* the shared memory it manages,
manipulated only with cache-bypassing atomics, so any node can allocate
and free without locks and without relying on cache coherence:

* a bump cursor (atomic fetch-add) hands out fresh blocks;
* per-size-class free lists are Treiber stacks whose heads are atomic
  cells and whose next-pointers are stored in the freed blocks.

Layout (all offsets from the heap base)::

    +0    magic
    +8    bump cursor (offset into the data area)
    +16   data area size
    +64   free-list heads (one u64 per size class)
    ...   data area (line-aligned)

Every block carries an 8-byte header holding its size class; callers get
the payload address.  Size classes are powers of two from 16 B to 1 MiB.
"""

from __future__ import annotations

from typing import Dict

from ...rack.machine import NodeContext

_MAGIC = 0xF1AC05EA9  # "flacos heap"
_N_CLASSES = 17  # 16 B .. 1 MiB
_MIN_BLOCK = 16
_HEADER = 8
_HEADS_OFF = 64
_DATA_ALIGN = 64


class SharedHeapError(Exception):
    """Base class for heap failures."""


class SharedHeapExhausted(SharedHeapError):
    """The data area has no room for the requested block."""


class BadFreeError(SharedHeapError):
    """free() called on something that is not a live heap block."""


def _class_for(payload_size: int) -> int:
    """Smallest size class whose block fits header + payload."""
    need = max(_MIN_BLOCK, payload_size + _HEADER)
    cls = 0
    size = _MIN_BLOCK
    while size < need:
        size <<= 1
        cls += 1
    if cls >= _N_CLASSES:
        raise SharedHeapExhausted(
            f"allocation of {payload_size} B exceeds the largest size class "
            f"({_MIN_BLOCK << (_N_CLASSES - 1)} B blocks)"
        )
    return cls


def _class_size(cls: int) -> int:
    return _MIN_BLOCK << cls


class SharedHeap:
    """A lock-free shared-memory heap usable from every node.

    One node calls :meth:`format` once; afterwards every node may
    ``alloc``/``free`` through its own context.  The heap never touches
    Python-side shared state beyond the base address and size, so it is
    honest about where its metadata lives.
    """

    def __init__(self, base: int, size: int) -> None:
        if size < 4096:
            raise ValueError("heap needs at least 4 KiB")
        self.base = base
        self.size = size
        data_off = _HEADS_OFF + _N_CLASSES * 8
        data_off = (data_off + _DATA_ALIGN - 1) & ~(_DATA_ALIGN - 1)
        self.data_base = base + data_off
        self.data_size = size - data_off

    # -- lifecycle ----------------------------------------------------------

    def format(self, ctx: NodeContext) -> "SharedHeap":
        """Initialise heap metadata; call exactly once per heap region."""
        ctx.atomic_store(self.base + 8, 0)  # bump cursor
        ctx.atomic_store(self.base + 16, self.data_size)
        for cls in range(_N_CLASSES):
            ctx.atomic_store(self._head_addr(cls), 0)
        ctx.atomic_store(self.base, _MAGIC)
        return self

    def check_formatted(self, ctx: NodeContext) -> None:
        if ctx.atomic_load(self.base) != _MAGIC:
            raise SharedHeapError(f"no heap formatted at {self.base:#x}")

    # -- allocation ------------------------------------------------------------

    def alloc(self, ctx: NodeContext, payload_size: int) -> int:
        """Allocate ``payload_size`` bytes; returns the payload address."""
        if payload_size <= 0:
            raise ValueError("allocation size must be positive")
        cls = _class_for(payload_size)
        block = self._pop_free(ctx, cls)
        if block == 0:
            block = self._bump(ctx, cls)
        ctx.atomic_store(block, cls)  # header
        return block + _HEADER

    def free(self, ctx: NodeContext, payload_addr: int) -> None:
        """Return a block to its size-class free list.

        The caller must guarantee no other node still reads the object —
        that is what :class:`~repro.flacdk.alloc.reclaim.EpochReclaimer`
        is for.
        """
        block = payload_addr - _HEADER
        if not (self.data_base <= block < self.data_base + self.data_size):
            raise BadFreeError(f"{payload_addr:#x} is not inside this heap")
        cls = ctx.atomic_load(block)
        if cls >= _N_CLASSES:
            raise BadFreeError(f"corrupt or double-freed header at {block:#x}")
        ctx.atomic_store(block, _N_CLASSES + 1)  # poison header against double free
        head_addr = self._head_addr(cls)
        while True:
            old_head = ctx.atomic_load(head_addr)
            ctx.atomic_store(block + _HEADER, old_head)  # next pointer in payload
            swapped, _ = ctx.cas(head_addr, old_head, block)
            if swapped:
                return

    def payload_capacity(self, payload_addr: int, ctx: NodeContext) -> int:
        """Usable bytes of a live allocation (class size minus header)."""
        cls = ctx.atomic_load(payload_addr - _HEADER)
        if cls >= _N_CLASSES:
            raise BadFreeError(f"not a live block: {payload_addr:#x}")
        return _class_size(cls) - _HEADER

    # -- introspection ---------------------------------------------------------------

    def bytes_bumped(self, ctx: NodeContext) -> int:
        return ctx.atomic_load(self.base + 8)

    def free_blocks(self, ctx: NodeContext) -> Dict[int, int]:
        """Number of blocks on each size-class free list (walks the stacks)."""
        counts: Dict[int, int] = {}
        for cls in range(_N_CLASSES):
            n = 0
            cursor = ctx.atomic_load(self._head_addr(cls))
            while cursor and n < 1_000_000:
                n += 1
                cursor = ctx.atomic_load(cursor + _HEADER)
            if n:
                counts[cls] = n
        return counts

    # -- internals -----------------------------------------------------------------------

    def _head_addr(self, cls: int) -> int:
        return self.base + _HEADS_OFF + cls * 8

    def _pop_free(self, ctx: NodeContext, cls: int) -> int:
        head_addr = self._head_addr(cls)
        while True:
            head = ctx.atomic_load(head_addr)
            if head == 0:
                return 0
            next_block = ctx.atomic_load(head + _HEADER)
            swapped, _ = ctx.cas(head_addr, head, next_block)
            if swapped:
                return head

    def _bump(self, ctx: NodeContext, cls: int) -> int:
        block_size = _class_size(cls)
        old = ctx.fetch_add(self.base + 8, block_size)
        if old + block_size > self.data_size:
            # undo is unsafe under concurrency; leak the slack and fail
            raise SharedHeapExhausted(
                f"heap at {self.base:#x} exhausted: wanted {block_size} B, "
                f"{self.data_size - old} B left"
            )
        return self.data_base + old
