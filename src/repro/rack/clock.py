"""Simulated per-node clocks.

The rack has no global wall clock; each node accumulates nanoseconds as
its operations are charged by the machine.  Experiments that need a
rack-wide notion of elapsed time use the maximum across participating
nodes, and cooperative protocols (e.g. delegation) synchronise clocks at
their hand-off points so that causally ordered events never run backwards
in simulated time.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from math import inf, ulp
from operator import add

#: 2**53: a binade holds this many steps of its spacing (its ulp).
_BINADE = 9007199254740992.0


def fold_adds(clock: float, ns: float, n: int) -> float:
    """``n`` adds of ``ns`` to ``clock``, left to right — bit for bit
    ``reduce(add, repeat(ns, n), clock)`` — in a few float operations per
    binade the sum crosses.

    In a binade of spacing ``u`` the clock is ``m`` whole ``u`` and one add
    rounds ``m + ns/u`` to an integer: the same step ``d`` every time while
    the exact sum stays below the binade's top, ``2**53 u``.  So the fold
    takes every such step at once, and one real add where the sum would
    cross that top or, at a round-half-even tie, while ``m`` is odd (from an
    even ``m`` a tie steps to the even neighbour, so ``m`` stays even).
    Every quantity below is a whole number of at most ``2**53`` or ``ns``
    scaled by a power of two, so each float operation is exact.  A negative
    or non-finite operand is folded add by add.
    """
    if not (0.0 <= clock < inf and 0.0 <= ns < inf):
        return reduce(add, repeat(ns, n), clock)
    while n > 0:
        u = ulp(clock)
        q = ns / u
        if q < _BINADE:
            k, m = q // 1.0, clock / u
            frac, room = q - k, _BINADE - 1.0 - m - k  # room: further adds below the top
            if room >= 0.0 and (frac != 0.5 or not m % 2.0):
                d = k + 1.0 if frac > 0.5 or frac == 0.5 and k % 2.0 else k
                if d == 0.0:
                    return clock + ns  # rounds back to clock (-0.0 + 0.0 is +0.0)
                steps = room // d + 1.0
                if steps >= n:
                    return (m + n * d) * u
                clock, n = (m + steps * d) * u, n - int(steps)
                continue
        clock += ns
        n -= 1
    return clock


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
