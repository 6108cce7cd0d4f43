"""Scheduler backpressure, batched placement reads, event-driven drains."""

import pytest

from repro.bench.harness import build_rig
from repro.core.sched import SchedulerBackpressure, SchedulerError


def _noop(ctx, payload):
    return payload


class TestSubmitBackpressure:
    def test_full_ring_backpressures_instead_of_crashing(self):
        rig = build_rig()
        sched = rig.kernel.scheduler
        rig.machine.crash_node(0)
        c1 = rig.c1
        # every submit now targets node 1's own ring (the only live node)
        accepted = 0
        before_tasks = len(sched._tasks)
        t0 = c1.now()
        with pytest.raises(SchedulerBackpressure) as err:
            for _ in range(100):
                sched.submit(c1, _noop, payload=b"x")
                accepted += 1
        # the 32-slot ring filled, then the bounded retries gave up
        assert 25 <= accepted <= 40
        exc = err.value
        assert exc.target == 1
        assert exc.attempts == sched.max_submit_retries
        # exponential backoff: 800 + 1600 + 3200 + 6400 simulated ns
        expected_wait = sum(
            sched.costs.submit_backoff_ns * (1 << a) for a in range(exc.attempts)
        )
        assert exc.waited_ns == expected_wait
        # ...actually charged to the submitter's clock
        assert c1.now() - t0 >= expected_wait
        # no phantom task record for the refused submission
        assert len(sched._tasks) == before_tasks + accepted

    def test_backpressure_clears_after_drain(self):
        rig = build_rig()
        sched = rig.kernel.scheduler
        rig.machine.crash_node(0)
        c1 = rig.c1
        with pytest.raises(SchedulerBackpressure):
            for _ in range(100):
                sched.submit(c1, _noop)
        sched.run_pending(c1, max_tasks=1_000)
        # ring drained: submits flow again
        task = sched.submit(c1, _noop, payload=b"after")
        sched.run_pending(c1)
        assert sched._tasks[task].result == b"after"


class TestBatchedPlacement:
    def test_atomic_load_many_matches_sequential(self):
        rig_a, rig_b = build_rig(), build_rig()
        addrs = [rig_a.kernel.scheduler._load_addrs[n] for n in (0, 1)]
        ca, cb = rig_a.c0, rig_b.c0
        ca.fetch_add(addrs[1], 5)
        cb.fetch_add(addrs[1], 5)
        t_a, t_b = ca.now(), cb.now()
        batched = ca.atomic_load_many(addrs)
        sequential = [cb.atomic_load(a) for a in addrs]
        assert batched == sequential == [0, 5]
        # identical charged nanoseconds on both paths
        assert ca.now() - t_a == cb.now() - t_b

    def test_pick_node_prefers_least_loaded(self):
        rig = build_rig()
        sched = rig.kernel.scheduler
        c0 = rig.c0
        c0.fetch_add(sched._load_addr(0), 3)  # node 0 busier
        assert sched.pick_node(c0) == 1
        c0.fetch_add(sched._load_addr(1), 5)  # now node 1 busier
        assert sched.pick_node(c0) == 0

    def test_pick_node_affinity_tiebreak_still_works(self):
        rig = build_rig()
        sched = rig.kernel.scheduler
        assert sched.pick_node(rig.c0, affinity=1) == 1

    def test_pick_node_skips_dead_nodes(self):
        rig = build_rig()
        rig.machine.crash_node(0)
        assert rig.kernel.scheduler.pick_node(rig.c1) == 1

    def test_no_live_nodes_raises(self):
        rig = build_rig()
        rig.machine.crash_node(0)
        sched = rig.kernel.scheduler
        rig.machine.crash_node(1)
        with pytest.raises(SchedulerError):
            sched.pick_node(rig.c1)


class TestEventDrivenDrains:
    def test_submitted_task_runs_when_events_pump(self):
        rig = build_rig()
        sched, events = rig.kernel.scheduler, rig.kernel.events
        task = sched.submit(rig.c0, _noop, payload=b"evt")
        assert not sched._tasks[task].done
        events.run()
        assert sched._tasks[task].done
        assert sched._tasks[task].result == b"evt"

    def test_one_pending_drain_per_destination(self):
        rig = build_rig()
        sched, events = rig.kernel.scheduler, rig.kernel.events
        rig.machine.crash_node(0)  # every placement lands on node 1
        for _ in range(5):
            sched.submit(rig.c1, _noop)
        # submissions coalesce onto one wake-up for the destination
        assert sum(not ev.cancelled for ev in events._heap) == 1
        events.run()
        assert all(sched._tasks[t].done for t in range(1, 6))
