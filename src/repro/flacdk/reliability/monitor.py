"""System health monitoring (§3.2): the front of the fault pipeline.

The monitor subscribes to the rack's fault log and aggregates events
into per-page counters over a sliding window.  Downstream, the predictor consumes these series and the
detectors cross-check data integrity and liveness.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict

from ...rack.faults import FaultEvent, FaultKind, FaultLog

#: The sliding window's length (simulated ns); a test needing another monkeypatches it.
WINDOW_NS = 1e9


class HealthMonitor:
    """Sliding-window aggregation of injected fault events."""

    def __init__(self, fault_log: FaultLog, page_size: int = 4096) -> None:
        self.page_size = page_size
        self._events: Deque[FaultEvent] = deque()
        fault_log.subscribe(self._events.append)

    def _trim(self, now_ns: float) -> None:
        horizon = now_ns - WINDOW_NS
        while self._events and self._events[0].time_ns < horizon:
            self._events.popleft()

    # -- queries --------------------------------------------------------------

    def ce_count_by_page(self, now_ns: float) -> Dict[int, int]:
        """Correctable-error counts per page within the window."""
        self._trim(now_ns)
        counts: Dict[int, int] = defaultdict(int)
        for event in self._events:
            if event.kind is FaultKind.CORRECTABLE and event.addr is not None:
                counts[event.addr & ~(self.page_size - 1)] += 1
        return dict(counts)
