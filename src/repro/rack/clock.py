"""Simulated per-node clocks.

The rack has no global wall clock; each node accumulates nanoseconds as
its operations are charged by the machine.  Experiments that need a
rack-wide notion of elapsed time use the maximum across participating
nodes, and cooperative protocols (e.g. delegation) synchronise clocks at
their hand-off points so that causally ordered events never run backwards
in simulated time.
"""

from __future__ import annotations


class SimClock:
    """A monotonically increasing nanosecond counter for one node."""

    __slots__ = ("_now_ns",)

    def __init__(self, start_ns: float = 0.0) -> None:
        self._now_ns = float(start_ns)

    @property
    def now_ns(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now_ns

    def advance(self, ns: float) -> float:
        """Charge ``ns`` nanoseconds and return the new time."""
        if not ns >= 0:  # NaN too: it would poison every later reading
            raise ValueError(f"cannot advance clock by negative or NaN time: {ns}")
        self._now_ns += ns
        return self._now_ns

    def sync_to(self, other_ns: float) -> float:
        """Move forward to ``other_ns`` if it is ahead (never backwards).

        Used when a node observes an event produced by another node: the
        observation cannot complete before the event happened.
        """
        if other_ns > self._now_ns:
            self._now_ns = other_ns
        return self._now_ns

    def reset(self, to_ns: float = 0.0) -> None:
        """Reset the clock (only experiments should do this)."""
        self._now_ns = float(to_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock({self._now_ns:.1f}ns)"


def rendezvous(*clocks: SimClock) -> float:
    """Synchronise all ``clocks`` to the maximum and return it.

    Models a synchronisation point (barrier, message hand-off) between
    nodes: after the rendezvous nobody's clock is behind the interaction.
    """
    if not clocks:
        raise ValueError("rendezvous needs at least one clock")
    latest = max(c.now_ns for c in clocks)
    for c in clocks:
        c.sync_to(latest)
    return latest
