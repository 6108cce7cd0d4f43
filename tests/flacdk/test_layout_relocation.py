"""Tests for hotness packing, handle tables, relocation, and tiering."""

import pytest

from repro.flacdk.alloc import (
    HandleError,
    HandleTable,
    HotColdPacker,
    MemoryTierer,
    ObjectInfo,
    Relocator,
    SharedHeap,
    address_order_plan,
    expected_lines_touched,
)


def _offset(plan, obj_id: int) -> int:
    return {p.obj_id: p.offset for p in plan.placements}[obj_id]


def _objects():
    return [
        ObjectInfo(0, size=24, hotness=5.0),
        ObjectInfo(1, size=200, hotness=0.1),
        ObjectInfo(2, size=24, hotness=4.0),
        ObjectInfo(3, size=300, hotness=0.0),
        ObjectInfo(4, size=16, hotness=9.0),
    ]


class TestHotColdPacker:
    def test_hot_objects_first(self):
        plan = HotColdPacker().pack(_objects())
        assert _offset(plan, 4) < _offset(plan, 0) < _offset(plan, 2)
        assert _offset(plan, 2) < _offset(plan, 1)

    def test_cold_seam_line_aligned(self):
        plan = HotColdPacker(line_size=64).pack(_objects())
        first_cold = _offset(plan, 1)
        assert first_cold % 64 == 0

    def test_fewer_hot_lines_than_address_order(self):
        objs = _objects()
        packer = HotColdPacker()
        packed = packer.pack(objs)
        naive = address_order_plan(objs)
        assert packer.hot_line_count(packed, objs) <= packer.hot_line_count(naive, objs)

    def test_trace_touches_fewer_lines_when_packed(self):
        objs = [ObjectInfo(i, 24, hotness=10.0 if i % 5 == 0 else 0.0) for i in range(40)]
        hot_trace = [i for i in range(40) if i % 5 == 0] * 3
        packed = HotColdPacker().pack(objs)
        naive = address_order_plan(objs)
        assert expected_lines_touched(packed, hot_trace, objs) < expected_lines_touched(
            naive, hot_trace, objs
        )

    def test_plan_offsets_unique_and_nonoverlapping(self):
        plan = HotColdPacker().pack(_objects())
        spans = sorted((p.offset, p.offset + p.size) for p in plan.placements)
        for (lo1, hi1), (lo2, _) in zip(spans, spans[1:]):
            assert hi1 <= lo2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ObjectInfo(0, size=0, hotness=1.0)
        with pytest.raises(ValueError):
            ObjectInfo(0, size=8, hotness=-1.0)
        with pytest.raises(ValueError):
            HotColdPacker(line_size=40)
        with pytest.raises(KeyError):
            _offset(HotColdPacker().pack(_objects()), 99)


class TestHandleTable:
    def _table(self, rig):
        _, ctxs, arena = rig
        return HandleTable(arena.take(8 * 64, align=8), capacity=63).format(ctxs[0]), ctxs

    def test_create_resolve(self, rig):
        table, ctxs = self._table(rig)
        handle = table.create(ctxs[0], 0xABC0)
        assert table.resolve(ctxs[3], handle) == 0xABC0

    def test_repoint_cas_semantics(self, rig):
        table, ctxs = self._table(rig)
        handle = table.create(ctxs[0], 0x100)
        assert table.repoint(ctxs[1], handle, 0x100, 0x200)
        assert not table.repoint(ctxs[2], handle, 0x100, 0x300)
        assert table.resolve(ctxs[0], handle) == 0x200

    def test_destroy_and_dead_handle(self, rig):
        table, ctxs = self._table(rig)
        handle = table.create(ctxs[0], 0x500)
        assert table.destroy(ctxs[0], handle) == 0x500
        with pytest.raises(HandleError):
            table.resolve(ctxs[1], handle)

    def test_capacity_enforced(self, rig):
        _, ctxs, arena = rig
        table = HandleTable(arena.take(8 * 3, align=8), capacity=2).format(ctxs[0])
        table.create(ctxs[0], 1)
        table.create(ctxs[0], 2)
        with pytest.raises(HandleError):
            table.create(ctxs[0], 3)

    def test_out_of_range_handle(self, rig):
        table, ctxs = self._table(rig)
        with pytest.raises(HandleError):
            table.resolve(ctxs[0], 999)


class TestRelocator:
    def test_relocate_preserves_bytes_and_repoints(self, rig, heap):
        _, ctxs, arena = rig
        table = HandleTable(arena.take(8 * 16, align=8), 15).format(ctxs[0])
        relocator = Relocator(table)
        src = heap.alloc(ctxs[0], 128)
        ctxs[0].store(src, b"R" * 128)
        ctxs[0].flush(src, 128)
        handle = table.create(ctxs[0], src)
        dst_heap = SharedHeap(arena.take(1 << 16), 1 << 16).format(ctxs[0])
        new_addr = relocator.relocate(ctxs[1], handle, 128, dst_heap, src_heap=heap)
        assert new_addr != src
        assert table.resolve(ctxs[2], handle) == new_addr
        assert ctxs[2].load(new_addr, 128, bypass_cache=True) == b"R" * 128
        assert relocator.stats.moved == 1
        assert relocator.stats.bytes_copied == 128


class TestMemoryTierer:
    def test_promotion_and_demotion(self, rig, heap):
        _, ctxs, arena = rig
        table = HandleTable(arena.take(8 * 16, align=8), 15).format(ctxs[0])
        hot_heap = SharedHeap(arena.take(1 << 16), 1 << 16).format(ctxs[0])
        tierer = MemoryTierer(Relocator(table), hot_heap, cold_heap=heap, hot_threshold=1.0)

        cold_obj = heap.alloc(ctxs[0], 64)
        h_cold = table.create(ctxs[0], cold_obj)
        tierer.track(h_cold, 64, hot=False)

        hot_obj = hot_heap.alloc(ctxs[0], 64)
        h_hot = table.create(ctxs[0], hot_obj)
        tierer.track(h_hot, 64, hot=True)

        for _ in range(5):
            tierer.record_access(h_cold)  # cold object becomes hot
        moves = tierer.rebalance(ctxs[0])
        assert moves == {"promoted": 1, "demoted": 1}
        # promoted object now lives in the hot heap's address range
        new_addr = table.resolve(ctxs[0], h_cold)
        assert hot_heap.data_base <= new_addr < hot_heap.data_base + hot_heap.data_size

    def test_untracked_access_rejected(self, rig, heap):
        _, ctxs, arena = rig
        table = HandleTable(arena.take(8 * 4, align=8), 3).format(ctxs[0])
        tierer = MemoryTierer(Relocator(table), heap, heap)
        with pytest.raises(HandleError):
            tierer.record_access(42)
