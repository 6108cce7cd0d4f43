"""Discrete-event scheduling core for the rack simulator.

Everything above the substrate used to be driven by *polling loops*:
each logical actor (a client, a patrol, a health tick) was visited
every tick whether or not it had work, so N actors cost O(N) Python per
tick regardless of activity.  The event core inverts that: actors are
woken only when their next event fires, so a run costs O(events
dispatched), independent of how many actors exist.  That is the
refactor that lets the open-loop traffic engine
(:mod:`repro.workloads.traffic`) multiplex 100k+ logical clients over
the rack without 100k Python loops per tick.

Determinism rules (the same contract the chaos journals pin):

* the heap holds ``(when_ns, seq, event)`` tuples — ``seq`` is the
  insertion order (unique, so ``heapq`` compares a float and an int in C,
  never an :class:`Event`): simultaneous events dispatch in the order they
  were scheduled, never in hash or heap-internal order;
* dispatch time is monotone: an event scheduled in the past (a handler
  reacting "immediately") is clamped to the core's current time;
* when an event is bound to a node, that node's simulated clock is
  :meth:`~repro.rack.clock.SimClock.sync_to`'d forward to the event
  time before the handler runs (the rack's clock-rendezvous rule: a
  wake-up cannot be observed before it happened), and never backwards.

The core itself never draws randomness; arrival processes pre-sample
their timestamps (:mod:`repro.workloads.arrivals`), so a seeded run
replays event-for-event.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from ..rack.machine import RackMachine


class EventCoreError(Exception):
    pass


class Event:
    """One scheduled wake-up.  Cancel via :meth:`EventCore.cancel`."""

    __slots__ = ("when_ns", "seq", "fn", "node", "cancelled")

    def __init__(self, when_ns: float, seq: int, fn: Callable[[], None],
                 node: Optional[int]) -> None:
        self.when_ns = when_ns
        self.seq = seq
        self.fn = fn
        self.node = node
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(@{self.when_ns:.0f}ns #{self.seq}{state})"


class RecurringEvent:
    """A self-rescheduling event; returned by :meth:`EventCore.every`."""

    __slots__ = ("core", "period_ns", "fn", "_ev", "cancelled", "fired")

    def __init__(self, core: "EventCore", period_ns: float, fn: Callable[[], None]) -> None:
        self.core = core
        self.period_ns = period_ns
        self.fn = fn
        self._ev: Optional[Event] = None
        self.cancelled = False
        #: dispatch count (tests/telemetry)
        self.fired = 0

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.fired += 1
        self.fn()
        if not self.cancelled:  # fn may cancel its own recurrence
            self._ev = self.core.at(self.core.now_ns + self.period_ns, self._fire)

    def cancel(self) -> None:
        self.cancelled = True
        if self._ev is not None:
            EventCore.cancel(self._ev)


class EventCore:
    """A deterministic event heap over simulated nanoseconds.

    ``machine`` is optional: without it the core is a pure priority
    queue; with it, node-bound events rendezvous the node's clock
    forward to the event time at dispatch.
    """

    def __init__(self, machine: Optional[RackMachine] = None) -> None:
        self.machine = machine
        self.now_ns = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        #: events dispatched over the core's lifetime (telemetry/benches)
        self.dispatched = 0

    # -- scheduling ------------------------------------------------------------

    def at(self, when_ns: float, fn: Callable[[], None], node: Optional[int] = None) -> Event:
        """Schedule ``fn`` at absolute simulated time ``when_ns``.

        Times in the past are clamped to ``now_ns`` (dispatch stays
        monotone); ties dispatch in scheduling order.
        """
        when = float(when_ns)
        if when != when:  # NaN would corrupt heap ordering
            raise EventCoreError("event time is NaN")
        if when < self.now_ns:
            when = self.now_ns
        ev = Event(when, self._seq, fn, node)
        heapq.heappush(self._heap, (when, self._seq, ev))
        self._seq += 1
        return ev

    @staticmethod
    def cancel(ev: Event) -> None:
        """Mark an event dead; it is skipped (and freed) when it surfaces."""
        ev.cancelled = True

    def every(
        self,
        period_ns: float,
        fn: Callable[[], None],
        first_ns: Optional[float] = None,
    ) -> "RecurringEvent":
        """Schedule ``fn`` every ``period_ns``, starting at ``first_ns``
        (default: one period from now).

        This is how polled daemon loops (scrubber patrol, health ticks)
        move onto the heap: instead of every tick asking "is it time
        yet?", the daemon is woken exactly when it is.  The handle's
        :meth:`RecurringEvent.cancel` stops the recurrence.
        """
        if not 0 < period_ns < float("inf"):  # NaN fails too
            raise EventCoreError(
                f"recurring period must be finite and positive, got {period_ns}"
            )
        rec = RecurringEvent(self, float(period_ns), fn)
        start = first_ns if first_ns is not None else self.now_ns + period_ns
        rec._ev = self.at(start, rec._fire)
        return rec

    # -- introspection ---------------------------------------------------------

    def peek_ns(self) -> Optional[float]:
        """Time of the next live event, or ``None`` when idle."""
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else None

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)

    # -- dispatch --------------------------------------------------------------

    def step(self) -> bool:
        """Dispatch the next live event; False when the heap is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:  # :meth:`_drop_cancelled`, inline
            heapq.heappop(heap)
        if not heap:
            return False
        when, _, ev = heapq.heappop(heap)
        self.now_ns = when  # heap order makes this monotone
        if ev.node is not None and self.machine is not None:
            node = self.machine.nodes.get(ev.node)
            if node is not None:
                node.clock.sync_to(when)
        self.dispatched += 1
        ev.fn()
        return True

    def run(self, max_events: Optional[int] = None,
            until_ns: Optional[float] = None) -> int:
        """Dispatch events in order; returns how many ran.

        Stops after ``max_events`` dispatches, when the next event lies
        *after* ``until_ns`` (events at exactly ``until_ns`` run), or
        when the heap drains.  Handlers may schedule further events;
        those are dispatched in the same call if they fall inside the
        bounds.
        """
        ran = 0
        while max_events is None or ran < max_events:
            self._drop_cancelled()
            if not self._heap:
                break
            if until_ns is not None and self._heap[0][0] > until_ns:
                break
            self.step()
            ran += 1
        return ran

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventCore(now={self.now_ns:.0f}ns, pending={sum(not ev.cancelled for _, _, ev in self._heap)})"
