"""Tests for fault boxes, adaptive redundancy, n-modular execution,
partial replication, and the recovery coordinator."""

import pytest

from repro.core.fault import (
    AdaptiveRedundancyPolicy,
    FaultBoxManager,
    FaultRecoveryCoordinator,
    NModularExecutor,
    PartialReplicator,
    RedundancyMode,
    VotingFailure,
)
from repro.core.memory import PAGE_SIZE
from repro.flacdk.alloc import FrameAllocator
from repro.rack import FaultKind
from repro.rack.faults import FaultEvent


@pytest.fixture
def boxes(memsys):
    return FaultBoxManager(memsys)


def _box_with_state(boxes, ctx, name="app", pages=2, criticality=1):
    box = boxes.create_box(ctx, name, criticality=criticality)
    va = box.aspace.mmap(ctx, pages * PAGE_SIZE)
    for i in range(pages):
        box.aspace.write(ctx, va + i * PAGE_SIZE, b"page%d " % i * 100)
    return box, va


class TestFaultBox:
    def test_snapshot_captures_all_pages(self, rack2, boxes):
        _, c0, _, _ = rack2
        box, va = _box_with_state(boxes, c0, pages=3)
        snap = boxes.snapshot(c0, box)
        assert len(snap.pages) == 3
        assert snap.pages[va].startswith(b"page0 ")

    def test_restore_after_corruption(self, rack2, boxes):
        _, c0, _, _ = rack2
        box, va = _box_with_state(boxes, c0)
        boxes.snapshot(c0, box)
        box.aspace.write(c0, va, b"X" * PAGE_SIZE)
        restored = boxes.restore(c0, box)
        assert restored == 2
        assert box.aspace.read(c0, va, 6) == b"page0 "

    def test_restore_onto_another_node_is_migration(self, rack2, boxes):
        _, c0, c1, _ = rack2
        box, va = _box_with_state(boxes, c0)
        boxes.snapshot(c0, box)
        boxes.restore(c1, box)
        assert box.home_node == 1
        assert box.aspace.read(c1, va, 6) == b"page0 "

    def test_restore_survives_home_node_crash(self, rack2, boxes):
        machine, c0, c1, _ = rack2
        box, va = _box_with_state(boxes, c0)
        boxes.snapshot(c0, box)
        machine.crash_node(0)
        boxes.restore(c1, box)
        assert box.aspace.read(c1, va, 6) == b"page0 "

    def test_snapshot_includes_local_pages(self, rack2, boxes):
        from repro.core.memory import Placement

        _, c0, _, _ = rack2
        box = boxes.create_box(c0, "mixed")
        va = box.aspace.mmap(c0, PAGE_SIZE, placement=Placement.LOCAL)
        box.aspace.write(c0, va, b"private dram")
        snap = boxes.snapshot(c0, box)
        assert snap.pages[va].startswith(b"private dram")

    def test_snapshot_includes_ipc_regions(self, rack2, boxes):
        _, c0, _, arena = rack2
        box, _ = _box_with_state(boxes, c0)
        ring = arena.take(256)
        c0.store(ring, b"ring contents", bypass_cache=True)
        box.ipc_regions.append(("ring", ring, 256))
        snap = boxes.snapshot(c0, box)
        assert snap.ipc_payloads[0][1].startswith(b"ring contents")
        c0.store(ring, bytes(256), bypass_cache=True)
        boxes.restore(c0, box, snap)
        assert c0.load(ring, 13, bypass_cache=True) == b"ring contents"

    def test_owns_address_and_blast_radius(self, rack2, boxes):
        _, c0, _, _ = rack2
        box_a, va_a = _box_with_state(boxes, c0, "a")
        box_b, _ = _box_with_state(boxes, c0, "b")
        frame = box_a.aspace.page_table.try_translate(c0, va_a).frame_addr
        hit = boxes.boxes_hit_by(c0, frame + 17)
        assert [b.name for b in hit] == ["a"]

    def test_restore_without_snapshot_raises(self, rack2, boxes):
        _, c0, _, _ = rack2
        box, _ = _box_with_state(boxes, c0)
        with pytest.raises(KeyError):
            boxes.restore(c0, box)


class TestAdaptivePolicy:
    def test_criticality_ladder(self, rack2, boxes):
        _, c0, _, _ = rack2
        policy = AdaptiveRedundancyPolicy()
        modes = {}
        for crit in range(4):
            box = boxes.create_box(c0, f"c{crit}", criticality=crit)
            modes[crit] = policy.decide(box, at_risk_pages=0).mode
        assert modes[0] is RedundancyMode.NONE
        assert modes[1] is RedundancyMode.CHECKPOINT
        assert modes[2] is RedundancyMode.REPLICATE
        assert modes[3] is RedundancyMode.REPLICATE  # no predicted risk

    def test_risk_escalates_critical_tasks_to_nmodular(self, rack2, boxes):
        _, c0, _, _ = rack2
        policy = AdaptiveRedundancyPolicy()
        box = boxes.create_box(c0, "crit", criticality=3)
        assert policy.decide(box, at_risk_pages=2).mode is RedundancyMode.NMODULAR

    def test_risk_tightens_checkpoint_period(self, rack2, boxes):
        _, c0, _, _ = rack2
        policy = AdaptiveRedundancyPolicy()
        box = boxes.create_box(c0, "normal", criticality=1)
        calm = policy.decide(box, at_risk_pages=0)
        risky = policy.decide(box, at_risk_pages=3)
        assert risky.checkpoint_period_ns < calm.checkpoint_period_ns


class TestNModular:
    def test_unanimous_vote(self, rack2):
        machine, c0, c1, _ = rack2
        result = NModularExecutor().run([c0, c1], lambda ctx: 42)
        assert result.value == 42 and result.agreeing == result.total

    def test_majority_overrules_corrupt_variant(self, rack2):
        machine, c0, c1, arena = rack2
        cell = arena.take(8, align=8)
        c0.atomic_store(cell, 7)

        calls = []

        def read_cell(ctx):
            calls.append(ctx.node_id)
            value = ctx.atomic_load(cell)
            # simulate SDC on the second variant's read path
            return value + 1 if len(calls) == 2 else value

        result = NModularExecutor().run([c0, c1, c0], read_cell)
        assert result.value == 7
        assert result.dissenting == 1

    def test_faulted_variant_abstains(self, rack2):
        machine, c0, c1, arena = rack2
        target = arena.take(64)
        machine.faults.inject_ue(machine.global_mem, target - machine.global_base)

        def reader(ctx):
            if ctx.node_id == 0:
                return ctx.load(target, 8)  # poisoned: raises
            return b"ok"

        result = NModularExecutor().run([c0, c1, c1], reader)
        assert result.value == b"ok"
        assert result.faulted == 1

    def test_no_majority_raises(self, rack2):
        _, c0, c1, _ = rack2
        counter = iter(range(10))
        with pytest.raises(VotingFailure):
            NModularExecutor().run([c0, c1], lambda ctx: next(counter))

    def test_needs_two_variants(self, rack2):
        _, c0, _, _ = rack2
        with pytest.raises(ValueError):
            NModularExecutor().run([c0], lambda ctx: 1)


class TestPartialReplication:
    @pytest.fixture
    def replicator(self, rack2, boxes):
        _, c0, _, arena = rack2
        standby = FrameAllocator(arena.take(1 << 21, align=4096), 1 << 21).format(c0)
        return PartialReplicator(boxes, standby)

    def test_sync_copies_only_dirty_pages(self, rack2, boxes, replicator):
        _, c0, _, _ = rack2
        box, va = _box_with_state(boxes, c0, pages=4)
        replicator.enable(box)
        assert replicator.sync(c0, box) == 4  # first sync copies all
        assert replicator.sync(c0, box) == 0  # nothing dirtied
        box.aspace.write(c0, va, b"touch one page")
        assert replicator.sync(c0, box) == 1

    def test_failover_promotes_standby(self, rack2, boxes, replicator):
        machine, c0, c1, _ = rack2
        box, va = _box_with_state(boxes, c0)
        replicator.enable(box)
        replicator.sync(c0, box)
        machine.crash_node(0)
        restored = replicator.failover(c1, box)
        assert restored == 2
        assert box.aspace.read(c1, va, 6) == b"page0 "

    def test_standby_bytes_accounting(self, rack2, boxes, replicator):
        _, c0, _, _ = rack2
        box, _ = _box_with_state(boxes, c0, pages=3)
        replicator.enable(box)
        replicator.sync(c0, box)
        assert len(replicator._replicas[box.box_id].standby_frames) * PAGE_SIZE == 3 * PAGE_SIZE


class TestRecoveryCoordinator:
    def _rig(self, rack2, boxes):
        machine, c0, c1, arena = rack2
        standby = FrameAllocator(arena.take(1 << 21, align=4096), 1 << 21).format(c0)
        replicator = PartialReplicator(boxes, standby)
        coordinator = FaultRecoveryCoordinator(
            boxes, AdaptiveRedundancyPolicy(), replicator=replicator
        )
        return machine, c0, c1, replicator, coordinator

    def test_ue_hits_only_owning_box(self, rack2, boxes):
        machine, c0, c1, replicator, coordinator = self._rig(rack2, boxes)
        box_a, va_a = _box_with_state(boxes, c0, "a")
        box_b, _ = _box_with_state(boxes, c0, "b")
        boxes.snapshot(c0, box_a)
        frame = box_a.aspace.page_table.try_translate(c0, va_a).frame_addr
        event = FaultEvent(FaultKind.UNCORRECTABLE, time_ns=c0.now(), addr=frame + 8)
        report = coordinator.handle_memory_fault(c0, event)
        assert report.blast_radius_boxes == 1
        assert report.unaffected_boxes == 1
        assert not box_b.failed
        assert report.recoveries[0].mode is RedundancyMode.CHECKPOINT
        assert box_a.aspace.read(c0, va_a, 6) == b"page0 "

    def test_node_crash_recovers_homed_boxes_elsewhere(self, rack2, boxes):
        machine, c0, c1, replicator, coordinator = self._rig(rack2, boxes)
        box, va = _box_with_state(boxes, c0, "homed", criticality=2)
        replicator.enable(box)
        replicator.sync(c0, box)
        machine.crash_node(0)
        report = coordinator.handle_node_crash(c1, dead_node=0)
        assert report.blast_radius_boxes == 1
        assert report.recoveries[0].mode is RedundancyMode.REPLICATE
        assert box.home_node == 1
        assert box.aspace.read(c1, va, 6) == b"page0 "

    def test_best_effort_boxes_just_restart(self, rack2, boxes):
        machine, c0, c1, replicator, coordinator = self._rig(rack2, boxes)
        box, va = _box_with_state(boxes, c0, "cheap", criticality=0)
        frame = box.aspace.page_table.try_translate(c0, va).frame_addr
        event = FaultEvent(FaultKind.UNCORRECTABLE, time_ns=0.0, addr=frame)
        report = coordinator.handle_memory_fault(c0, event)
        assert report.recoveries[0].mode is RedundancyMode.NONE
        assert report.recoveries[0].pages_restored == 0
        assert not box.failed  # restarted fresh

    def test_non_ue_event_rejected(self, rack2, boxes):
        _, c0, c1, replicator, coordinator = self._rig(rack2, boxes)
        with pytest.raises(ValueError):
            coordinator.handle_memory_fault(
                c0, FaultEvent(FaultKind.CORRECTABLE, time_ns=0.0, addr=1)
            )
