"""Deterministic fault injection for the rack substrate.

§2.2 of the paper: global memory fails more often (smaller transistors,
manufacturing defects) and every interconnect hop and switch widens the
fault surface.  The injector reproduces that taxonomy:

* **Correctable errors (CE)** — ECC fixed the bit; data is fine but the
  event is visible to the health monitor (failure-prediction input).
* **Uncorrectable errors (UE)** — the accessed bytes are poisoned; the
  consumer sees :class:`~repro.rack.memory.UncorrectableMemoryError`.
* **Link failures** — a fabric link goes down; paths lengthen or sever.
* **Node crashes** — a node dies with whatever was in its cache lost.

Everything is driven by a seeded RNG so experiments are reproducible.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional

from ..telemetry import TELEMETRY as _TEL
from .memory import PhysicalMemory, Region
from .params import FaultModel

_SUB = "reliability"


class FaultKind(Enum):
    CORRECTABLE = "ce"
    UNCORRECTABLE = "ue"
    LINK_DOWN = "link_down"
    LINK_UP = "link_up"
    NODE_CRASH = "node_crash"
    #: A poisoned range was rewritten from a redundancy source (self-healing).
    REPAIR = "repair"


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in the rack's fault log."""

    kind: FaultKind
    time_ns: float
    #: Physical address for memory faults, ``None`` otherwise.
    addr: Optional[int] = None
    #: Node observing or suffering the fault.
    node_id: Optional[int] = None
    detail: str = ""


class FaultLog:
    """Append-only record of injected faults; the health monitor reads it.

    Events arrive in non-decreasing ``time_ns`` order (simulated clocks
    only move forward), so a per-kind index plus a parallel timestamp
    list turns ``since_ns`` queries into a bisect + slice instead of a
    full scan — CE storms append millions of events and the monitor
    polls constantly.
    """

    def __init__(self) -> None:
        self._events: List[FaultEvent] = []
        self._times: List[float] = []
        self._by_kind: Dict[FaultKind, List[FaultEvent]] = {}
        self._times_by_kind: Dict[FaultKind, List[float]] = {}
        self._listeners: List[Callable[[FaultEvent], None]] = []

    def record(self, event: FaultEvent) -> None:
        self._events.append(event)
        self._times.append(event.time_ns)
        self._by_kind.setdefault(event.kind, []).append(event)
        self._times_by_kind.setdefault(event.kind, []).append(event.time_ns)
        if _TEL.enabled:
            _TEL.registry.inc(
                event.node_id if event.node_id is not None else -1,
                _SUB,
                f"fault.{event.kind.value}",
            )
        for listener in self._listeners:
            listener(event)

    def subscribe(self, listener: Callable[[FaultEvent], None]) -> None:
        self._listeners.append(listener)

    def events(self, kind: Optional[FaultKind] = None, since_ns: float = 0.0) -> List[FaultEvent]:
        if kind is None:
            events, times = self._events, self._times
        else:
            events = self._by_kind.get(kind, [])
            times = self._times_by_kind.get(kind, [])
        if since_ns <= 0.0 or not events:
            return list(events)
        return events[bisect_left(times, since_ns) :]

    def __len__(self) -> int:
        return len(self._events)


class FaultInjector:
    """Applies the :class:`FaultModel` on every memory access.

    The machine calls :meth:`on_access` for each backing-device touch; the
    injector rolls the dice, mutates the device in place for CEs/UEs, and
    records the event.  Explicit injection methods exist for targeted
    failure tests.
    """

    def __init__(self, model: FaultModel, seed: int = 0) -> None:
        self.model = model
        self.rng = random.Random(seed)
        self.log = FaultLog()
        self._enabled = True
        # Memo of scaled (ce, ue) per (is_global, path_cost): the model is
        # static after construction, so the per-hop exponentiation only
        # runs once per distinct path.  Call :meth:`model_changed` if a
        # test mutates the model in place.
        self._rate_cache: dict = {}
        self.model_changed()

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = value
        self.model_changed()

    def model_changed(self) -> None:
        """Re-check the model, drop memoized rates and re-derive
        :attr:`armed` after an in-place :class:`FaultModel` edit (or an
        ``enabled`` flip)."""
        m = self.model
        m.validate()
        self._rate_cache.clear()
        #: ``armed[is_global]``: can any fault fire for that region kind?
        #: Zero base rates stay zero under any per-hop scaling, so the flag
        #: is independent of path cost; the machine's gate reads it to skip
        #: the per-access call without touching the seeded RNG stream (zero
        #: rates never consumed randomness in the first place).
        self.armed = (
            bool(self._enabled and (m.local_ce_rate > 0 or m.local_ue_rate > 0)),
            bool(self._enabled and (m.global_ce_rate > 0 or m.global_ue_rate > 0)),
        )

    def is_noop(self, is_global: bool) -> bool:
        """True when no fault can fire for this region kind."""
        return not self.armed[is_global]

    def _rates(self, region: Region, path_cost: int) -> tuple:
        key = (region.owner is None, path_cost)
        cached = self._rate_cache.get(key)
        if cached is not None:
            return cached
        if region.is_global:
            ce, ue = self.model.global_ce_rate, self.model.global_ue_rate
        else:
            ce, ue = self.model.local_ce_rate, self.model.local_ue_rate
        if path_cost > 0:
            scale = self.model.per_hop_multiplier**path_cost
            ce *= scale
            ue *= scale
        self._rate_cache[key] = (ce, ue)
        return ce, ue

    def on_access(
        self, region: Region, offset: int, size: int, node_id: int, now_ns: float, path_cost: int = 0
    ) -> None:
        """Possibly inject a fault into the accessed range."""
        if not self.enabled or size <= 0:
            return
        ce_rate, ue_rate = self._rates(region, path_cost)
        if ue_rate > 0 and self.rng.random() < ue_rate:
            victim = offset + self.rng.randrange(size)
            self.inject_ue(region.device, victim, node_id=node_id, now_ns=now_ns, rack_addr=region.base + victim)
        elif ce_rate > 0 and self.rng.random() < ce_rate:
            victim = offset + self.rng.randrange(size)
            self.log.record(
                FaultEvent(
                    kind=FaultKind.CORRECTABLE,
                    time_ns=now_ns,
                    addr=region.base + victim,
                    node_id=node_id,
                    detail="ecc corrected",
                )
            )

    # -- explicit injection (targeted tests & benchmarks) ---------------------

    def inject_ce(self, rack_addr: int, node_id: int = -1, now_ns: float = 0.0) -> None:
        self.log.record(
            FaultEvent(FaultKind.CORRECTABLE, time_ns=now_ns, addr=rack_addr, node_id=node_id)
        )

    def inject_ue(
        self,
        device: PhysicalMemory,
        offset: int,
        *,
        node_id: int = -1,
        now_ns: float = 0.0,
        rack_addr: Optional[int] = None,
        size: int = 1,
    ) -> None:
        """Poison ``size`` bytes of ``device`` starting at ``offset``."""
        if self.rng.random() < self.model.line_corruption_ratio:
            size = max(size, 64)
            offset &= ~63
            # devices smaller than a line would push the offset negative;
            # clamp to [0, size] and shrink the spread to the device
            size = min(size, device.size)
            offset = max(0, min(offset, device.size - size))
        device.poison(offset, size)
        self.log.record(
            FaultEvent(
                kind=FaultKind.UNCORRECTABLE,
                time_ns=now_ns,
                addr=rack_addr if rack_addr is not None else offset,
                node_id=node_id,
                detail=f"poisoned {size}B",
            )
        )

    def record_link_change(self, u: str, v: str, up: bool, now_ns: float = 0.0) -> None:
        self.log.record(
            FaultEvent(
                kind=FaultKind.LINK_UP if up else FaultKind.LINK_DOWN,
                time_ns=now_ns,
                detail=f"{u}<->{v}",
            )
        )

    def record_node_crash(self, node_id: int, now_ns: float = 0.0) -> None:
        self.log.record(FaultEvent(FaultKind.NODE_CRASH, time_ns=now_ns, node_id=node_id))

    def record_repair(
        self, rack_addr: int, node_id: int = -1, now_ns: float = 0.0, detail: str = ""
    ) -> None:
        """Log a successful in-place repair of a poisoned range."""
        self.log.record(
            FaultEvent(FaultKind.REPAIR, time_ns=now_ns, addr=rack_addr, node_id=node_id, detail=detail)
        )
