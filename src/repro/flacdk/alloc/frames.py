"""Page-frame allocator over a shared-memory bitmap.

Page tables, the shared page cache, and IPC buffer pools all need
page-granularity frames from global memory.  The allocator keeps one bit
per frame in a bitmap that itself lives in the managed region, updated
with CAS so every node can allocate concurrently.  A per-node rotor
spreads allocations across the bitmap to keep CAS contention low.
"""

from __future__ import annotations

from typing import Dict

from ...rack.machine import NodeContext

_WORD_BITS = 64
#: bytes per frame (a power of two)
FRAME_SIZE = 4096


class FrameAllocatorError(Exception):
    pass


class OutOfFramesError(FrameAllocatorError):
    pass


class FrameAllocator:
    """Allocates fixed-size frames from ``[base, base+size)``.

    The first frames of the region are reserved for the bitmap itself.
    """

    def __init__(self, base: int, size: int) -> None:
        if size < 2 * FRAME_SIZE:
            raise ValueError("region too small for a bitmap and one frame")
        self.base = base
        self.size = size
        total_frames = size // FRAME_SIZE
        bitmap_bytes = (total_frames + 7) // 8
        bitmap_frames = (bitmap_bytes + FRAME_SIZE - 1) // FRAME_SIZE
        self.n_frames = total_frames - bitmap_frames
        self.bitmap_base = base
        self.frames_base = base + bitmap_frames * FRAME_SIZE
        self._n_words = (self.n_frames + _WORD_BITS - 1) // _WORD_BITS
        self._rotor: Dict[int, int] = {}

    def format(self, ctx: NodeContext) -> "FrameAllocator":
        """Zero the bitmap (all frames free).  Call once per region."""
        ctx.atomic_store_many(
            range(self.bitmap_base, self.bitmap_base + self._n_words * 8, 8), 0
        )
        # mark the tail bits beyond n_frames as allocated so they never leave
        tail_bits = self._n_words * _WORD_BITS - self.n_frames
        if tail_bits:
            last = self.bitmap_base + (self._n_words - 1) * 8
            mask = ((1 << tail_bits) - 1) << (_WORD_BITS - tail_bits)
            ctx.atomic_store(last, mask)
        return self

    # -- allocation --------------------------------------------------------------

    def alloc(self, ctx: NodeContext) -> int:
        """Allocate one frame; returns its rack physical address."""
        start_word = self._rotor.get(ctx.node_id, (ctx.node_id * 7) % max(1, self._n_words))
        for probe in range(self._n_words):
            word_idx = (start_word + probe) % self._n_words
            word_addr = self.bitmap_base + word_idx * 8
            while True:
                word = ctx.atomic_load(word_addr)
                if word == (1 << _WORD_BITS) - 1:
                    break  # word full, next word
                bit = _lowest_zero_bit(word)
                swapped, _ = ctx.cas(word_addr, word, word | (1 << bit))
                if swapped:
                    self._rotor[ctx.node_id] = word_idx
                    frame_idx = word_idx * _WORD_BITS + bit
                    return self.frames_base + frame_idx * FRAME_SIZE
        raise OutOfFramesError(f"no free frames in region at {self.base:#x}")

    def free(self, ctx: NodeContext, frame_addr: int) -> None:
        frame_idx = self._frame_index(frame_addr)
        word_addr = self.bitmap_base + (frame_idx // _WORD_BITS) * 8
        mask = 1 << (frame_idx % _WORD_BITS)
        while True:
            word = ctx.atomic_load(word_addr)
            if not word & mask:
                raise FrameAllocatorError(f"double free of frame {frame_addr:#x}")
            swapped, _ = ctx.cas(word_addr, word, word & ~mask)
            if swapped:
                return

    def free_frames(self, ctx: NodeContext) -> int:
        """Count free frames (bitmap scan; diagnostics only)."""
        free = 0
        for word_idx in range(self._n_words):
            word = ctx.atomic_load(self.bitmap_base + word_idx * 8)
            free += _WORD_BITS - bin(word).count("1")
        return free

    def _frame_index(self, frame_addr: int) -> int:
        off = frame_addr - self.frames_base
        if off < 0 or off % FRAME_SIZE or off // FRAME_SIZE >= self.n_frames:
            raise FrameAllocatorError(f"{frame_addr:#x} is not a frame of this allocator")
        return off // FRAME_SIZE


def _lowest_zero_bit(word: int) -> int:
    inverted = ~word & ((1 << _WORD_BITS) - 1)
    return (inverted & -inverted).bit_length() - 1
