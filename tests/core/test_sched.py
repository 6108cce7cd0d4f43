"""Tests for the rack scheduler: placement, execution, failover."""

import pytest

from repro.bench import build_rig
from repro.core.sched import RackScheduler, SchedulerError


@pytest.fixture
def rig():
    return build_rig()


def _upper(ctx, payload: bytes):
    return payload.upper()


def _node_id(ctx, payload: bytes):
    return ctx.node_id


class TestPlacementAndExecution:
    def test_submit_run_result(self, rig):
        sched = rig.kernel.scheduler
        tid = sched.submit(rig.c0, _upper, b"abc")
        target = 0 if sched.load_of(rig.c0, 0) else 1
        sched.run_pending(rig.machine.context(target))
        assert sched._tasks[tid].done
        assert sched._tasks[tid].result == b"ABC"

    def test_least_loaded_placement(self, rig):
        sched = rig.kernel.scheduler
        # queue three tasks without running any: they must alternate nodes
        for _ in range(4):
            sched.submit(rig.c0, _node_id, b"")
        assert sched.load_of(rig.c0, 0) == 2
        assert sched.load_of(rig.c0, 1) == 2

    def test_affinity_wins_near_ties(self, rig):
        sched = rig.kernel.scheduler
        tid = sched.submit(rig.c0, _node_id, b"", affinity=1)
        assert sched.load_of(rig.c0, 1) == 1
        sched.run_pending(rig.c1)
        assert sched._tasks[tid].result == 1

    def test_affinity_ignored_when_target_overloaded(self, rig):
        sched = rig.kernel.scheduler
        for _ in range(3):
            sched.submit(rig.c0, _node_id, b"", affinity=1)
        # node 1 already has the lion's share; the next submission goes to 0
        assert sched.load_of(rig.c0, 0) >= 1

    def test_load_drops_after_execution(self, rig):
        sched = rig.kernel.scheduler
        sched.submit(rig.c0, _upper, b"x", affinity=0)
        assert sched.load_of(rig.c1, 0) == 1
        sched.run_pending(rig.c0)
        assert sched.load_of(rig.c1, 0) == 0

    def test_execution_charges_task_cost(self, rig):
        sched = rig.kernel.scheduler
        sched.submit(rig.c0, _upper, b"x", cost_ns=5e6, affinity=1)
        before = rig.c1.now()
        sched.run_pending(rig.c1)
        assert rig.c1.now() - before >= 5e6

    def test_unknown_task_queries(self, rig):
        sched = rig.kernel.scheduler
        assert 999 not in sched._tasks
        tid = sched.submit(rig.c0, _upper, b"x")
        assert not sched._tasks[tid].done  # not run yet
        with pytest.raises(SchedulerError):
            sched.load_of(rig.c0, 7)  # no such node

    def test_cross_node_submission(self, rig):
        sched = rig.kernel.scheduler
        tid = sched.submit(rig.c1, _node_id, b"", affinity=0)
        sched.run_pending(rig.c0)
        assert sched._tasks[tid].result == 0


class TestFailover:
    def test_queued_tasks_survive_executor_crash(self, rig):
        """Tasks queued in global memory outlive their target node."""
        sched = rig.kernel.scheduler
        tids = [sched.submit(rig.c0, _node_id, b"", affinity=1) for _ in range(3)]
        assert sched.load_of(rig.c0, 1) == 2  # the affinity bonus queues two of three on node 1
        rig.machine.crash_node(1)
        rig.machine.restart_node(1)  # the rings outlived the node
        for ctx in (rig.c0, rig.c1):
            sched.run_pending(ctx)
        assert all(sched._tasks[tid].done for tid in tids)
        assert [sched._tasks[tid].result for tid in tids] == [1, 1, 0]  # each ran where it was queued

    def test_placement_skips_dead_nodes(self, rig):
        sched = rig.kernel.scheduler
        rig.machine.crash_node(1)
        for _ in range(3):
            sched.submit(rig.c0, _node_id, b"")
        assert sched.load_of(rig.c0, 0) == 3

    def test_no_live_nodes_raises(self, rig):
        sched = rig.kernel.scheduler
        rig.machine.crash_node(1)
        rig.machine.crash_node(0)
        rig.machine.restart_node(0)  # need a live submitter
        rig.machine.crash_node(0)
        with pytest.raises(Exception):
            sched.submit(rig.c0, _upper, b"x")
