"""Adversarial interleavings of the FlacDK protocols.

The simulator lets tests stop a protocol between *any* two hardware
operations and observe what other nodes would see.  These tests freeze
protocols at their most dangerous points — payload written but not
flushed, flushed but not committed, crashed mid-operation — and assert
that no reader ever observes torn or phantom state.
"""

from repro.flacdk.structures import SpscRing
from repro.flacdk.sync import GlobalSpinLock, NodeReplication, OperationLog


class TestOpLogTornStates:
    def test_reserved_but_unwritten_entry_invisible(self, rig):
        """A writer that reserved a slot but hasn't committed must be a
        gap, not garbage, to every reader."""
        _, ctxs, arena = rig
        log = OperationLog(arena.take(OperationLog.region_size(8)), 8).format(ctxs[0])
        # manually replicate append's first step only: reserve the slot
        idx = ctxs[0].fetch_add(log.base + 8, 1)
        assert log.read(ctxs[1], idx) is None
        # a later proper append lands in the NEXT slot, leaving the gap
        full_idx = log.append(ctxs[1], b"committed")
        assert full_idx == idx + 1
        assert log.read(ctxs[2], idx) is None
        assert log.read(ctxs[2], full_idx) == b"committed"

    def test_payload_written_but_not_flushed_invisible(self, rig):
        """Cached payload writes without the flush must not leak: the
        commit word is only set after the flush, so readers either see
        nothing or the complete entry."""
        _, ctxs, arena = rig
        log = OperationLog(arena.take(OperationLog.region_size(8)), 8).format(ctxs[0])
        idx = ctxs[0].fetch_add(log.base + 8, 1)
        entry = log._entry_addr(idx)
        ctxs[0].store(entry + 24, b"torn payload")  # no flush, no commit
        assert log.read(ctxs[1], idx) is None

    def test_writer_crash_before_commit_leaves_gap_not_garbage(self, rig):
        machine, ctxs, arena = rig
        log = OperationLog(arena.take(OperationLog.region_size(8)), 8).format(ctxs[0])
        idx = ctxs[0].fetch_add(log.base + 8, 1)
        entry = log._entry_addr(idx)
        ctxs[0].store(entry + 24, b"doomed")
        machine.crash_node(0)  # dirty cache lines vanish
        assert log.read(ctxs[1], idx) is None
        # the log keeps working for survivors
        idx2 = log.append(ctxs[1], b"alive")
        assert log.read(ctxs[2], idx2) == b"alive"


class TestRingTornStates:
    def test_slot_written_but_tail_not_bumped_invisible(self, rig):
        _, ctxs, arena = rig
        ring = SpscRing(arena.take(SpscRing.region_size(4, 64)), 4, 64).format(ctxs[0])
        # producer writes the slot bytes but "stops" before the tail store
        slot = ring._slot(0)
        ctxs[0].store(slot, b"\x00" * 16 + b"phantom message")
        ctxs[0].flush(slot, 31)
        assert ring.try_pop(ctxs[1]) is None

    def test_producer_crash_mid_publish_loses_message_cleanly(self, rig):
        machine, ctxs, arena = rig
        ring = SpscRing(arena.take(SpscRing.region_size(4, 64)), 4, 64).format(ctxs[0])
        slot = ring._slot(0)
        ctxs[0].store(slot + 16, b"unflushed")  # payload cached only
        machine.crash_node(0)
        assert ring.try_pop(ctxs[1]) is None
        # a fresh producer (restarted node) can continue from tail 0
        machine.restart_node(0)
        c0 = machine.context(0)
        assert ring.try_push(c0, b"recovered")
        assert ring.try_pop(ctxs[1]) == b"recovered"


class TestReplicationInterleavings:
    def _nr(self, rig, capacity=32):
        _, ctxs, arena = rig
        log = OperationLog(arena.take(OperationLog.region_size(capacity)), capacity).format(ctxs[0])
        return ctxs, NodeReplication(log, factory=lambda: [], apply_fn=_apply_append)

    def test_replicas_converge_regardless_of_replay_order(self, rig):
        ctxs, nr = self._nr(rig)
        # node 0 and node 1 interleave mutations; nodes 2 and 3 never
        # mutate and sync at arbitrary later points
        nr.replica(ctxs[0]).execute(ctxs[0], "a")
        nr.replica(ctxs[1]).execute(ctxs[1], "b")
        late = nr.replica(ctxs[2])
        late.read(ctxs[2], lambda s: None)  # sync at t1
        nr.replica(ctxs[0]).execute(ctxs[0], "c")
        very_late = nr.replica(ctxs[3])
        states = [
            nr.replica(ctx).read(ctx, lambda s: list(s)) for ctx in ctxs
        ]
        assert states == [["a", "b", "c"]] * 4

    def test_mutation_by_crashed_node_is_durable_once_committed(self, rig):
        machine, _, _ = rig[0], rig[1], rig[2]
        ctxs, nr = self._nr(rig)
        nr.replica(ctxs[0]).execute(ctxs[0], "survives")
        machine = rig[0]
        machine.crash_node(0)
        assert nr.replica(ctxs[1]).read(ctxs[1], lambda s: list(s)) == ["survives"]

    def test_uncommitted_mutation_by_crashed_node_never_appears(self, rig):
        machine, ctxs, arena = rig
        log = OperationLog(arena.take(OperationLog.region_size(16)), 16).format(ctxs[0])
        nr = NodeReplication(log, factory=lambda: [], apply_fn=_apply_append)
        # node 0 reserves a log slot but crashes before commit
        ctxs[0].fetch_add(log.base + 8, 1)
        machine.crash_node(0)
        # survivors see an empty (gap-terminated) log and keep going
        assert nr.replica(ctxs[1]).read(ctxs[1], lambda s: list(s)) == []
        # NOTE: the gap permanently blocks later appends from replaying —
        # that is the real cost of a mid-append crash, and why §3.2 pairs
        # the log with fault detection; recovery resets via compaction:
        log.reset(ctxs[1])
        nr.replica(ctxs[1]).applied = 0
        nr.replica(ctxs[1]).execute(ctxs[1], "post-recovery")
        assert nr.replica(ctxs[1]).read(ctxs[1], lambda s: list(s)) == ["post-recovery"]


def _apply_append(state, op):
    state.append(op)
    return list(state)


class TestLockHolderCrash:
    def test_crashed_holder_blocks_until_forced(self, rig):
        machine, ctxs, arena = rig
        lock = GlobalSpinLock(arena.take(8, align=8)).format(ctxs[0])
        lock.acquire(ctxs[0])
        machine.crash_node(0)
        assert not lock.try_acquire(ctxs[1])  # the lock leaks — §2.2's point
        # recovery must detect the dead holder and break the lock
        holder_tag = lock.holder_tag(ctxs[1])
        dead_node = holder_tag - 1
        assert not machine.nodes[dead_node].alive
        lock.force_release(ctxs[1])
        assert lock.try_acquire(ctxs[1])


class TestStaleReadWithoutInvalidate:
    def test_protocol_skipping_invalidate_reads_stale(self, rig):
        """Negative control: the substrate really punishes a protocol
        that forgets its invalidate."""
        _, ctxs, arena = rig
        addr = arena.take(64)
        ctxs[1].load(addr, 8)  # reader caches zeros
        ctxs[0].store(addr, b"fresh!!!")
        ctxs[0].flush(addr, 8)
        assert ctxs[1].load(addr, 8) == bytes(8)  # stale — bug reproduced
        ctxs[1].invalidate(addr, 8)
        assert ctxs[1].load(addr, 8) == b"fresh!!!"

    def test_protocol_skipping_flush_publishes_nothing(self, rig):
        machine, ctxs, arena = rig
        addr = arena.take(64)
        ctxs[0].store(addr, b"cached-only")
        ctxs[1].invalidate(addr, 11)
        assert ctxs[1].load(addr, 11) == bytes(11)
