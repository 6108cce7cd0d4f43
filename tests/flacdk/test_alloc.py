"""Tests for the shared heap, frame allocator, and reclamation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flacdk.alloc import (
    BadFreeError,
    FrameAllocator,
    FrameAllocatorError,
    OutOfFramesError,
    SharedHeap,
    SharedHeapExhausted,
)
from repro.flacdk.arena import Arena
from repro.rack import RackConfig, RackMachine
from tests.flacdk.test_edge_cases import payload_capacity


class TestSharedHeap:
    def test_alloc_returns_usable_memory(self, rig, heap):
        _, ctxs, _ = rig
        addr = heap.alloc(ctxs[0], 64)
        ctxs[0].store(addr, b"x" * 64)
        assert ctxs[0].load(addr, 64) == b"x" * 64

    def test_allocations_do_not_overlap(self, rig, heap):
        _, ctxs, _ = rig
        spans = []
        for i, size in enumerate([10, 100, 1000, 17, 64]):
            addr = heap.alloc(ctxs[i % 4], size)
            for lo, hi in spans:
                assert addr + size <= lo or addr >= hi
            spans.append((addr, addr + size))

    def test_free_then_alloc_reuses_block(self, rig, heap):
        _, ctxs, _ = rig
        a = heap.alloc(ctxs[0], 100)
        heap.free(ctxs[0], a)
        assert heap.alloc(ctxs[1], 100) == a

    def test_different_size_classes_not_mixed(self, rig, heap):
        _, ctxs, _ = rig
        small = heap.alloc(ctxs[0], 16)
        heap.free(ctxs[0], small)
        big = heap.alloc(ctxs[0], 5000)
        assert big != small

    def test_double_free_detected(self, rig, heap):
        _, ctxs, _ = rig
        addr = heap.alloc(ctxs[0], 32)
        heap.free(ctxs[0], addr)
        with pytest.raises(BadFreeError):
            heap.free(ctxs[0], addr)

    def test_free_of_foreign_address_rejected(self, rig, heap):
        _, ctxs, _ = rig
        with pytest.raises(BadFreeError):
            heap.free(ctxs[0], 0x12345)

    def test_exhaustion(self, rig):
        _, ctxs, arena = rig
        tiny = SharedHeap(arena.take(8192), 8192).format(ctxs[0])
        with pytest.raises(SharedHeapExhausted):
            for _ in range(100):
                tiny.alloc(ctxs[0], 1024)

    def test_oversized_allocation_rejected(self, rig, heap):
        _, ctxs, _ = rig
        with pytest.raises(SharedHeapExhausted):
            heap.alloc(ctxs[0], 10 << 20)

    def test_zero_size_rejected(self, rig, heap):
        _, ctxs, _ = rig
        with pytest.raises(ValueError):
            heap.alloc(ctxs[0], 0)

    def test_payload_capacity_at_least_requested(self, rig, heap):
        _, ctxs, _ = rig
        addr = heap.alloc(ctxs[0], 100)
        assert payload_capacity(heap, addr, ctxs[0]) >= 100


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=30),
    free_mask=st.lists(st.booleans(), min_size=30, max_size=30),
)
def test_heap_alloc_free_never_corrupts_neighbors(sizes, free_mask):
    """Blocks written with distinct patterns stay intact through arbitrary
    interleavings of alloc and free from alternating nodes."""
    machine = RackMachine(RackConfig(n_nodes=2, global_mem_size=1 << 24))
    ctxs = [machine.context(0), machine.context(1)]
    heap = SharedHeap(machine.global_base, 1 << 23).format(ctxs[0])
    live = {}
    for i, size in enumerate(sizes):
        ctx = ctxs[i % 2]
        addr = heap.alloc(ctx, size)
        pattern = bytes([i % 251 + 1]) * size
        ctx.store(addr, pattern, bypass_cache=True)
        live[addr] = (size, pattern)
        if free_mask[i] and len(live) > 1:
            victim = next(iter(live))
            del live[victim]
            heap.free(ctx, victim)
    for addr, (size, pattern) in live.items():
        assert ctxs[0].load(addr, size, bypass_cache=True) == pattern


class TestFrameAllocator:
    def _fa(self, rig, region=1 << 20):
        _, ctxs, arena = rig
        return FrameAllocator(arena.take(region, align=4096), region).format(ctxs[0]), ctxs

    def test_frames_are_distinct_and_aligned(self, rig):
        fa, ctxs = self._fa(rig)
        frames = {fa.alloc(ctxs[i % 4]) for i in range(50)}
        assert len(frames) == 50
        assert all((f - fa.frames_base) % 4096 == 0 for f in frames)

    def test_free_allows_reuse(self, rig):
        fa, ctxs = self._fa(rig)
        before = fa.free_frames(ctxs[0])
        frame = fa.alloc(ctxs[0])
        assert fa.free_frames(ctxs[0]) == before - 1
        fa.free(ctxs[1], frame)
        assert fa.free_frames(ctxs[0]) == before

    def test_double_free_detected(self, rig):
        fa, ctxs = self._fa(rig)
        frame = fa.alloc(ctxs[0])
        fa.free(ctxs[0], frame)
        with pytest.raises(FrameAllocatorError):
            fa.free(ctxs[0], frame)

    def test_exhaustion(self, rig):
        _, ctxs, arena = rig
        fa = FrameAllocator(arena.take(4096 * 4, align=4096), 4096 * 4).format(ctxs[0])
        for _ in range(fa.n_frames):
            fa.alloc(ctxs[0])
        with pytest.raises(OutOfFramesError):
            fa.alloc(ctxs[0])

    def test_foreign_address_rejected(self, rig):
        fa, ctxs = self._fa(rig)
        with pytest.raises(FrameAllocatorError):
            fa.free(ctxs[0], fa.frames_base + 123)  # unaligned

    def test_bitmap_reserves_tail_bits(self, rig):
        fa, ctxs = self._fa(rig, region=4096 * 3)
        assert fa.free_frames(ctxs[0]) == fa.n_frames


class TestEpochReclaimer:
    def test_retired_block_not_freed_while_reader_inside(self, rig, heap, reclaimer):
        _, ctxs, _ = rig
        freed = []
        addr = heap.alloc(ctxs[0], 64)
        reclaimer.enter(ctxs[1])  # reader on node 1 pins the epoch
        reclaimer.retire(ctxs[0], addr, freed.append)
        reclaimer.advance_and_reclaim(ctxs[0])
        assert freed == []
        reclaimer.exit(ctxs[1])
        reclaimer.advance_and_reclaim(ctxs[0])
        assert freed == [addr]

    def test_idle_nodes_do_not_block(self, rig, reclaimer):
        _, ctxs, _ = rig
        freed = []
        reclaimer.retire(ctxs[0], 0x1000, freed.append)
        reclaimer.advance_and_reclaim(ctxs[0])
        assert freed == [0x1000]

    def test_pending_counts(self, rig, reclaimer):
        _, ctxs, _ = rig
        reclaimer.enter(ctxs[3])
        reclaimer.retire(ctxs[0], 1, lambda a: None)
        reclaimer.retire(ctxs[1], 2, lambda a: None)
        assert sum(map(len, reclaimer._retired.values())) == 2
        assert len(reclaimer._retired[0]) == 1

    def test_epoch_monotonic(self, rig, reclaimer):
        _, ctxs, _ = rig
        e1 = ctxs[0].atomic_load(reclaimer.base)
        e2 = reclaimer.advance(ctxs[1])
        assert e2 == e1 + 1

    def test_reader_on_old_epoch_blocks_only_newer_retirements(self, rig, reclaimer):
        _, ctxs, _ = rig
        freed = []
        reclaimer.retire(ctxs[0], 0xA, freed.append)  # retired at epoch 1
        reclaimer.advance(ctxs[0])  # epoch 2
        reclaimer.enter(ctxs[1])  # reader announces epoch 2
        reclaimer.retire(ctxs[0], 0xB, freed.append)  # retired at epoch 2
        reclaimer.advance(ctxs[0])  # epoch 3
        reclaimer.reclaim(ctxs[0])
        assert 0xA in freed and 0xB not in freed
