"""Edge-case tests for FlacDK behaviours not covered elsewhere."""

import pytest

from repro.flacdk.alloc import FrameAllocator, SharedHeap, SharedHeapExhausted
from repro.flacdk.sync import DelegationError, DelegationService, OperationLog, RcuCell
from repro.flacdk.alloc import EpochReclaimer, object_allocator


def payload_capacity(heap, addr: int, ctx) -> int:
    """Usable bytes of a live allocation: its size class minus the header."""
    return object_allocator._class_size(ctx.atomic_load(addr - object_allocator._HEADER)) - object_allocator._HEADER


class TestHeapBoundaries:
    def test_exact_class_size_fits(self, rig, heap):
        _, ctxs, _ = rig
        # a 16-byte class holds 8 B of payload; 24 B needs the 32 class
        a = heap.alloc(ctxs[0], 8)
        assert payload_capacity(heap, a, ctxs[0]) == 8
        b = heap.alloc(ctxs[0], 9)
        assert payload_capacity(heap, b, ctxs[0]) == 24

    def test_one_mib_block_when_region_allows(self, rig):
        _, ctxs, arena = rig
        big_heap = SharedHeap(arena.take(1 << 22), 1 << 22).format(ctxs[0])
        addr = big_heap.alloc(ctxs[0], (1 << 20) - 8)
        assert payload_capacity(big_heap, addr, ctxs[0]) == (1 << 20) - 8
        with pytest.raises(SharedHeapExhausted):
            big_heap.alloc(ctxs[0], 1 << 20)  # payload > largest class

    def test_negative_size_rejected(self, rig, heap):
        _, ctxs, _ = rig
        with pytest.raises(ValueError):
            heap.alloc(ctxs[0], -1)


class TestFrameRotor:
    def test_rotor_spreads_nodes_across_bitmap(self, rig):
        _, ctxs, arena = rig
        fa = FrameAllocator(arena.take(1 << 21, align=4096), 1 << 21).format(ctxs[0])
        a = fa.alloc(ctxs[0])
        b = fa.alloc(ctxs[1])
        # different nodes start probing at different words
        assert a != b

    def test_free_then_alloc_from_other_node(self, rig):
        _, ctxs, arena = rig
        fa = FrameAllocator(arena.take(1 << 20, align=4096), 1 << 20).format(ctxs[0])
        frames = [fa.alloc(ctxs[0]) for _ in range(5)]
        for frame in frames:
            fa.free(ctxs[3], frame)
        assert fa.free_frames(ctxs[2]) == fa.n_frames


class TestDelegationLimits:
    def test_handler_response_overflow_detected(self, rig):
        _, ctxs, arena = rig
        svc = DelegationService(
            arena.take(DelegationService.region_size(4, payload_capacity=32)),
            owner_node=0,
            n_nodes=4,
            handler=lambda req: b"x" * 100,  # exceeds slot capacity
            payload_capacity=32,
        ).format(ctxs[0])
        svc.submit(ctxs[1], b"req")
        with pytest.raises(DelegationError):
            svc.poll(ctxs[0])

    def test_unknown_client_slot_rejected(self, rig):
        _, ctxs, arena = rig
        svc = DelegationService(
            arena.take(DelegationService.region_size(2)), 0, 2, lambda r: r
        ).format(ctxs[0])
        with pytest.raises(DelegationError):
            svc._slot(7)


class TestRcuRacePath:
    def test_update_retries_after_losing_cas(self, rig, heap, reclaimer):
        _, ctxs, arena = rig
        cell = RcuCell(arena.take(8, align=8), heap, reclaimer).format(ctxs[0])
        cell.publish(ctxs[0], b"base")
        interference = {"fired": False}

        def updater(current):
            # simulate a concurrent writer sneaking in between the
            # snapshot and our CAS, exactly once
            if not interference["fired"]:
                interference["fired"] = True
                cell.publish(ctxs[1], b"sneaky")
            return (current or b"") + b"+mine"

        result = cell.update(ctxs[0], updater)
        # the retry re-read the racer's version, so the update composed
        assert result == b"sneaky+mine"
        assert cell.read(ctxs[2]) == b"sneaky+mine"


class TestHwOpsMaintenance:
    def test_flush_invalidate_round_trip(self, rig):
        _, ctxs, arena = rig
        addr = arena.take(64)
        ctxs[0].store(addr, b"payload")
        written, dropped = ctxs[0].machine.flush_invalidate(0, addr, 7)
        assert written == 1 and dropped == 1
        ctxs[1].invalidate(addr, 7)
        assert ctxs[1].load(addr, 7) == b"payload"

    def test_fence_charges_time(self, rig):
        _, ctxs, _ = rig
        before = ctxs[0].now()
        ctxs[0].fence()
        assert ctxs[0].now() > before


class TestLogReadFromGap:
    def test_read_from_midstream(self, rig):
        _, ctxs, arena = rig
        log = OperationLog(arena.take(OperationLog.region_size(16)), 16).format(ctxs[0])
        for i in range(6):
            log.append(ctxs[0], bytes([i]))
        entries = list(log.read_from(ctxs[1], 4))
        assert [idx for idx, _ in entries] == [4, 5]

    def test_read_from_past_end(self, rig):
        _, ctxs, arena = rig
        log = OperationLog(arena.take(OperationLog.region_size(4)), 4).format(ctxs[0])
        log.append(ctxs[0], b"only")
        assert list(log.read_from(ctxs[0], 4)) == []
