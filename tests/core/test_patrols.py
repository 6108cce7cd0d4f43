"""Recurring events and event-heap daemon patrols.

The kernel daemons (scrubber patrol, health ticks) run on the
discrete-event heap via :meth:`EventCore.every` and
:meth:`FlacOS.start_patrols`; these tests pin the recurrence mechanics
and the patrols.
"""

import pytest

from repro.core.events import EventCore, EventCoreError
from repro.core.kernel import FlacOS


class TestRecurringEvents:
    def test_fires_every_period(self):
        core = EventCore()
        hits = []
        core.every(100.0, lambda: hits.append(core.now_ns))
        core.run(until_ns=1_000.0)
        assert hits == [float(t) for t in range(100, 1_001, 100)]

    def test_first_ns_override(self):
        core = EventCore()
        hits = []
        core.every(100.0, lambda: hits.append(core.now_ns), first_ns=5.0)
        core.run(until_ns=250.0)
        assert hits == [5.0, 105.0, 205.0]

    def test_cancel_stops_recurrence(self):
        core = EventCore()
        hits = []
        rec = core.every(10.0, lambda: hits.append(core.now_ns))
        core.run(until_ns=35.0)
        rec.cancel()
        core.run(until_ns=100.0)
        assert hits == [10.0, 20.0, 30.0]
        assert rec.fired == 3

    def test_handler_may_cancel_itself(self):
        core = EventCore()

        def fn():
            if rec.fired >= 2:
                rec.cancel()

        rec = core.every(10.0, fn)
        core.run(until_ns=200.0)
        assert rec.fired == 2

    def test_rejects_nonpositive_period(self):
        core = EventCore()
        # a NaN period failed only at dispatch; an infinite one never fired
        for period in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(EventCoreError, match=f"got {period}"):
                core.every(period, lambda: None)
        assert core.peek_ns() is None

    def test_interleaves_with_one_shot_events_deterministically(self):
        core = EventCore()
        order = []
        core.every(10.0, lambda: order.append("patrol"))
        core.at(10.0, lambda: order.append("oneshot"))
        core.run(until_ns=10.0)
        # recurrence armed first -> dispatches first on the tie
        assert order == ["patrol", "oneshot"]


class TestKernelPatrols:
    def test_start_patrols_is_idempotent(self, machine):
        kernel = FlacOS.boot(machine)
        handles = kernel.start_patrols(1_000.0)
        assert kernel.start_patrols(5_000.0) is handles
        assert len(kernel.patrols) == 1  # no health engine attached
        kernel.stop_patrols()
        assert kernel.patrols == []
        kernel.attach_health()
        kernel.start_patrols(2_000.0)  # scrub + health, one period
        assert [h.period_ns for h in kernel.patrols] == [2_000.0, 2_000.0]
        kernel.stop_patrols()

    def test_scrub_patrol_runs_off_the_heap(self, machine):
        kernel = FlacOS.boot(machine)
        kernel.start_patrols(1_000.0)
        before = kernel.scrubber.stats.windows_scanned
        kernel.events.run(until_ns=kernel.events.now_ns + 10_000.0)
        assert kernel.scrubber.stats.windows_scanned > before
        kernel.stop_patrols()

    def test_health_patrol_forwards_lines_to_sink(self, machine):
        kernel = FlacOS.boot(machine)
        kernel.attach_health()
        lines = []
        kernel.start_patrols(1_000.0, sink=lines.append)
        assert len(kernel.patrols) == 2
        machine.context(0).advance(5_000.0)
        kernel.events.run(until_ns=kernel.events.now_ns + 5_000.0)
        # the engine may or may not transition, but the patrol must
        # have ticked it: tick count moves even with no lines
        kernel.stop_patrols()

    def test_patrol_survives_driver_node_crash(self, machine):
        kernel = FlacOS.boot(machine)
        kernel.start_patrols(1_000.0)
        machine.crash_node(0)
        kernel.events.run(until_ns=kernel.events.now_ns + 5_000.0)  # no raise
        before = kernel.scrubber.stats.windows_scanned
        kernel.events.run(until_ns=kernel.events.now_ns + 5_000.0)
        assert kernel.scrubber.stats.windows_scanned > before  # node 1 drives it
        kernel.stop_patrols()
