"""Windowed aggregation of the metrics registry.

The :class:`~repro.telemetry.registry.MetricsRegistry` is cumulative —
counters only grow.  Health evaluation needs *rates*: "how many UEs in
the last window", "how many requests were lost".  The
:class:`WindowAggregator` rolls the cumulative counters into fixed
simulated-time windows by capturing a baseline at every window close
and emitting the deltas as a :class:`WindowFrame`, with the gauges as
they stand at the close.  Histograms stay in the registry: no window
reader asks for a per-window distribution.

Everything here is pure observation: the aggregator reads the simulated
clock (the caller passes ``now_ns``) and never calls ``clock.advance`` —
closing a window is free in simulated time.  Two runs that record the
same metrics at the same simulated instants produce identical frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ...rack.params import finite, refuse
from ..registry import MetricKey, MetricsRegistry


@dataclass
class WindowFrame:
    """Counter deltas and gauges over one closed window span.

    ``index`` is the fixed window grid slot the frame *starts* at
    (``start_ns = index * window_ns``); ``windows`` is how many grid
    slots the frame spans (> 1 when the clock jumped several windows
    between ticks); a reader normalises a rate by it, so a long frame
    does not masquerade as a burst.
    """

    index: int
    start_ns: float
    end_ns: float
    windows: int
    counters: Dict[MetricKey, float] = field(default_factory=dict)
    gauges: Dict[MetricKey, float] = field(default_factory=dict)

    # -- per-window queries ----------------------------------------------------
    #
    # A closed frame is immutable; the first metric query builds a
    # (subsystem, name) -> {node: delta} index so the SLO engine's
    # objectives cost one counter scan per frame, not one each.

    def _by_metric(self) -> Dict[Tuple[str, str], Dict[int, float]]:
        index = getattr(self, "_metric_index", None)
        if index is None:
            index = {}
            for (node, sub, name), value in self.counters.items():
                index.setdefault((sub, name), {})[node] = value
            self._metric_index = index
        return index

    def delta_total(self, subsystem: str, name: str) -> float:
        """Sum of one counter's delta across every node."""
        return sum(self.per_node(subsystem, name).values())

    def per_node(self, subsystem: str, name: str) -> Dict[int, float]:
        """Node -> delta for one counter (shared index dict: treat as read-only)."""
        return self._by_metric().get((subsystem, name), {})

    # -- export (flight recorder / postmortem) ---------------------------------

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "windows": self.windows,
            "counters": [[k[0], k[1], k[2], v] for k, v in sorted(self.counters.items())],
            "gauges": [[k[0], k[1], k[2], v] for k, v in sorted(self.gauges.items())],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WindowFrame":
        frame = cls(
            index=int(data["index"]),
            start_ns=float(data["start_ns"]),
            end_ns=float(data["end_ns"]),
            windows=int(data["windows"]),
        )
        for node, sub, name, v in data.get("counters", []):
            frame.counters[(node, sub, name)] = v
        for node, sub, name, v in data.get("gauges", []):
            frame.gauges[(node, sub, name)] = v
        return frame


class WindowAggregator:
    """Rolls a cumulative registry into fixed simulated-time windows.

    ``tick(now_ns)`` is the only entry point: the first call anchors the
    baseline; every later call that finds the clock in a new window
    closes the span since the last close and returns the frame.  Ticks
    within the same window return nothing and cost one division.
    """

    def __init__(self, registry: MetricsRegistry, window_ns: float = 1e6) -> None:
        self.registry = registry
        self.window_ns = window_ns
        # NaN passes a `<= 0` test and inf never closes a window
        if not (finite(window_ns) and window_ns > 0):
            refuse(self, "window_ns", "a finite number > 0")
        self._open_index: Optional[int] = None
        self._base_counters: Dict[MetricKey, float] = {}

    def window_index(self, now_ns: float) -> int:
        return int(now_ns // self.window_ns)

    def tick(self, now_ns: float) -> Optional[WindowFrame]:
        """Close the open window span if ``now_ns`` has moved past it."""
        w = self.window_index(now_ns)
        if self._open_index is None:
            self._open_index = w
            self._capture_baseline()
            return None
        if w <= self._open_index:
            return None
        frame = self._close(self._open_index, w)
        self._open_index = w
        self._capture_baseline()
        return frame

    # -- internals -------------------------------------------------------------

    def _capture_baseline(self) -> None:
        self._base_counters = dict(self.registry.counters)

    def _close(self, start_index: int, end_index: int) -> WindowFrame:
        reg = self.registry
        frame = WindowFrame(
            index=start_index,
            start_ns=start_index * self.window_ns,
            end_ns=end_index * self.window_ns,
            windows=end_index - start_index,
        )
        base = self._base_counters
        for key, value in reg.counters.items():
            delta = value - base.get(key, 0.0)
            if delta:
                frame.counters[key] = delta
        frame.gauges = dict(reg.gauges)
        return frame
