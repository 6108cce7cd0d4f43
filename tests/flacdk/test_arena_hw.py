"""Tests for the arena carver and the level-1 hardware ops."""

import struct

import pytest

from repro.flacdk.arena import Arena, ArenaExhausted


class TestArena:
    def test_regions_do_not_overlap(self):
        arena = Arena(0x1000, 4096)
        a = arena.take(100)
        b = arena.take(100)
        assert b >= a + 100

    def test_alignment_respected(self):
        arena = Arena(0x1000, 4096)
        arena.take(1)
        addr = arena.take(8, align=256)
        assert addr % 256 == 0

    def test_exhaustion_raises(self):
        arena = Arena(0, 128)
        arena.take(100)
        with pytest.raises(ArenaExhausted):
            arena.take(100)

    def test_bad_alignment_rejected(self):
        with pytest.raises(ValueError):
            Arena(0, 128).take(8, align=48)

    def test_remaining_decreases(self):
        arena = Arena(0, 1024)
        before = arena.base + arena.size - arena._cursor
        arena.take(64)
        assert arena.base + arena.size - arena._cursor < before


class TestHwOps:
    """FlacDK level 1 is ``NodeContext`` itself: typed stores, the two
    publication idioms (store + flush, invalidate + load) and atomics."""

    def test_typed_round_trip(self, rig):
        _, ctxs, arena = rig
        addr = arena.take(64)
        ctxs[0].store(addr, struct.pack("<QI", 0xDEADBEEF, 77))
        assert struct.unpack("<QI", ctxs[0].load(addr, 12)) == (0xDEADBEEF, 77)

    def test_write_shared_visible_to_fresh_reader(self, rig):
        _, ctxs, arena = rig
        addr = arena.take(64)
        ctxs[0].store(addr, b"published")
        ctxs[0].flush(addr, 9)
        ctxs[1].invalidate(addr, 9)
        assert ctxs[1].load(addr, 9) == b"published"

    def test_plain_write_not_visible(self, rig):
        _, ctxs, arena = rig
        addr = arena.take(64)
        ctxs[0].store(addr, b"unflushed")
        ctxs[1].invalidate(addr, 9)
        assert ctxs[1].load(addr, 9) == bytes(9)

    def test_shared_u64_round_trip(self, rig):
        _, ctxs, arena = rig
        addr = arena.take(8, align=8)
        ctxs[2].atomic_store(addr, 12345)
        assert ctxs[3].atomic_load(addr) == 12345

    def test_causal_handoff_orders_clocks(self, rig):
        _, ctxs, _ = rig
        ctxs[0].advance(5000)
        ctxs[1].node.clock.sync_to(ctxs[0].now())
        assert ctxs[1].now() >= 5000


class TestCells:
    """Control words are single atomics on a fixed rack address."""

    def test_atomic_cell_coherent_across_nodes(self, rig):
        _, ctxs, arena = rig
        addr = arena.take(8, align=8)
        ctxs[0].atomic_store(addr, 5)
        assert ctxs[3].atomic_load(addr) == 5
        assert ctxs[1].fetch_add(addr, 2) == 5
        assert ctxs[2].atomic_load(addr) == 7

    def test_sequence_bump_returns_new(self, rig):
        _, ctxs, arena = rig
        addr = arena.take(8, align=8)
        ctxs[0].atomic_store(addr, 0)
        assert ctxs[0].fetch_add(addr, 1) + 1 == 1
        assert ctxs[1].fetch_add(addr, 1) + 1 == 2

    def test_sequence_wait_at_least(self, rig):
        _, ctxs, arena = rig
        addr = arena.take(8, align=8)
        ctxs[0].atomic_store(addr, 3)
        assert ctxs[1].atomic_load(addr) >= 3

    def test_flag_ring_and_take(self, rig):
        _, ctxs, arena = rig
        addr = arena.take(8, align=8)
        ctxs[0].atomic_store(addr, 0)
        assert ctxs[1].atomic_load(addr) == 0
        ctxs[0].atomic_store(addr, 9)
        assert ctxs[1].swap(addr, 0) == 9
        assert ctxs[1].swap(addr, 0) == 0
