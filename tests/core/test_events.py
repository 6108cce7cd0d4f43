"""The discrete-event core: ordering, clamping, clock rendezvous."""

import pytest

from repro.core.events import EventCore, EventCoreError
from repro.rack import RackConfig, RackMachine


def test_events_dispatch_in_time_order():
    core = EventCore()
    seen = []
    core.at(300.0, lambda: seen.append("c"))
    core.at(100.0, lambda: seen.append("a"))
    core.at(200.0, lambda: seen.append("b"))
    assert core.run() == 3
    assert seen == ["a", "b", "c"]
    assert core.now_ns == 300.0


def test_simultaneous_events_dispatch_in_scheduling_order():
    core = EventCore()
    seen = []
    for tag in range(10):
        core.at(500.0, lambda t=tag: seen.append(t))
    core.run()
    assert seen == list(range(10))


def test_past_events_clamp_to_now():
    core = EventCore()
    core.at(1000.0, lambda: None)
    core.run()
    seen = []
    ev = core.at(10.0, lambda: seen.append("late"))  # in the past
    assert ev.when_ns == 1000.0
    core.run()
    assert seen == ["late"]
    assert core.now_ns == 1000.0  # never moved backwards


def test_nan_time_rejected():
    core = EventCore()
    with pytest.raises(EventCoreError):
        core.at(float("nan"), lambda: None)


def test_cancelled_events_are_skipped():
    core = EventCore()
    seen = []
    ev = core.at(100.0, lambda: seen.append("dead"))
    core.at(200.0, lambda: seen.append("live"))
    EventCore.cancel(ev)
    assert core.peek_ns() == 200.0  # the cancelled event is not the next one
    assert core.run() == 1
    assert seen == ["live"]
    assert core.peek_ns() is None


def test_peek_skips_cancelled():
    core = EventCore()
    ev = core.at(100.0, lambda: None)
    core.at(250.0, lambda: None)
    EventCore.cancel(ev)
    assert core.peek_ns() == 250.0


def test_handlers_can_schedule_more_events():
    core = EventCore()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 5:
            core.at(core.now_ns + 10.0, lambda: chain(n + 1))

    core.at(0.0, lambda: chain(0))
    assert core.run() == 6
    assert seen == [0, 1, 2, 3, 4, 5]
    assert core.now_ns == 50.0


def test_run_until_bounds_and_advances_clock():
    core = EventCore()
    seen = []
    core.at(100.0, lambda: seen.append(1))
    core.at(200.0, lambda: seen.append(2))
    core.at(300.0, lambda: seen.append(3))
    assert core.run(until_ns=200.0) == 2  # events at exactly the deadline run
    assert seen == [1, 2]
    assert core.now_ns == 200.0
    assert core.run(until_ns=1000.0) == 1
    assert core.now_ns == 300.0  # the clock stops at the last event run


def test_max_events_bound():
    core = EventCore()
    for t in range(10):
        core.at(float(t), lambda: None)
    assert core.run(max_events=4) == 4
    assert core.peek_ns() == 4.0
    assert core.run() == 6


def test_node_bound_events_rendezvous_the_node_clock():
    machine = RackMachine(RackConfig(n_nodes=2))
    core = EventCore(machine)
    seen = []
    core.at(5_000.0, lambda: seen.append(machine.now(1)), node=1)
    core.run()
    # the node's clock was synced forward to the event time before dispatch
    assert seen == [5_000.0]
    # a later event cannot drag an already-advanced clock backwards
    machine.context(1).advance(10_000.0)
    core.at(6_000.0, lambda: seen.append(machine.now(1)), node=1)
    core.run()
    assert seen[-1] == 15_000.0


def test_dispatched_counter():
    core = EventCore()
    for t in range(7):
        core.at(float(t), lambda: None)
    core.run()
    assert core.dispatched == 7
