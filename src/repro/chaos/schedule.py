"""Declarative chaos schedules.

A schedule is a tuple of :class:`ChaosEvent`, each naming an action and
a trigger — fire when the rack clock reaches ``at_ns``, or immediately
at step ``at_step``.  Parameters are frozen into a sorted tuple so events
(and whole campaigns) are hashable values that can live in test tables.

Actions understood by the runner:

``ue``                one uncorrectable error (explicit or random target)
``ue_storm``          ``count`` UEs across the target set
``ce_storm``          ``count`` correctable errors across the target set
``correlated_lines``  ``lines`` poisoned cache lines at ``stride`` apart
                      (a failing row/column hits many pages at once)
``link_down``         sever ``node``'s fabric port
``link_up``           restore ``node``'s fabric port
``node_crash``        kill ``node`` (cache contents lost)
``node_restart``      bring ``node`` back (cold cache)

Targets for memory actions are rack addresses.  ``targets=(a, b, ...)``
confines random picks to those pages; without targets the whole global
pool is fair game.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..rack.params import finite, refuse, whole

ACTIONS = frozenset(
    {
        "ue",
        "ue_storm",
        "ce_storm",
        "correlated_lines",
        "link_down",
        "link_up",
        "node_crash",
        "node_restart",
    }
)


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault action with its trigger condition."""

    action: str
    #: Fire once the rack-wide max clock reaches this (simulated ns).
    at_ns: Optional[float] = None
    #: Fire at the start of this workload step (0-based).
    at_step: Optional[int] = None
    #: Frozen ``(key, value)`` pairs, sorted by key (see :func:`event`).
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown chaos action {self.action!r}; know {sorted(ACTIONS)}")
        if self.at_ns is None and self.at_step is None:
            raise ValueError(f"event {self.action!r} needs at_ns or at_step")
        # a NaN time compares False against every clock, so it would fire at once
        if not (self.at_ns is None or finite(self.at_ns) and self.at_ns >= 0):
            refuse(self, "at_ns", "None or a finite number >= 0")
        if not (self.at_step is None or whole(self.at_step)):
            refuse(self, "at_step", "None or an integer >= 0")

    def due(self, now_ns: float, step: int) -> bool:
        if self.at_ns is not None and now_ns < self.at_ns:
            return False
        if self.at_step is not None and step < self.at_step:
            return False
        return True

    def param(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def trigger_str(self) -> str:
        parts = []
        if self.at_ns is not None:
            parts.append(f"t>={self.at_ns:.0f}")
        if self.at_step is not None:
            parts.append(f"step>={self.at_step}")
        return ",".join(parts)


def event(
    action: str,
    at_ns: Optional[float] = None,
    at_step: Optional[int] = None,
    **params,
) -> ChaosEvent:
    """Build a :class:`ChaosEvent`, freezing ``params`` deterministically.

    Lists/tuples in params are frozen to tuples so the event stays
    hashable: ``event("ue_storm", at_step=3, count=8, targets=[a, b])``.
    """
    frozen = tuple(
        (k, tuple(v) if isinstance(v, (list, tuple)) else v)
        for k, v in sorted(params.items())
    )
    return ChaosEvent(
        action=action, at_ns=at_ns, at_step=at_step, params=frozen
    )


@dataclass(frozen=True)
class ChaosCampaign:
    """A named, seeded schedule — the reusable chaos artifact.

    The seed drives *every* random choice the runner makes while
    applying the schedule (random targets, storm spread), so one
    (campaign, workload) pair replays to a byte-identical journal.
    """

    name: str
    seed: int
    events: Tuple[ChaosEvent, ...]
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if not whole(self.seed):
            refuse(self, "seed", "an integer >= 0")
        if not all(isinstance(e, ChaosEvent) for e in self.events):
            refuse(self, "events", "a sequence of ChaosEvent")
