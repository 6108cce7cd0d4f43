"""Windowed aggregation of the metrics registry.

The PR-4 :class:`~repro.telemetry.registry.MetricsRegistry` is cumulative
— counters only grow, histograms only accumulate.  Health evaluation
needs *rates*: "how many UEs in the last window", "what was p99 this
window".  The :class:`WindowAggregator` rolls the cumulative registry
into fixed simulated-time windows by capturing a monotone baseline at
every window close and emitting the deltas as a :class:`WindowFrame`.

Everything here is pure observation: the aggregator reads the simulated
clock (the caller passes ``now_ns``) and never calls ``clock.advance`` —
closing a window is free in simulated time.  Two runs that record the
same metrics at the same simulated instants produce identical frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ...rack.params import finite, refuse
from ..registry import Histogram, MetricKey, MetricsRegistry, N_BUCKETS

#: A window delta's sample bounds: exact per-window min/max cannot be
#: recovered from cumulative state, so quantiles are bucket midpoints —
#: the same one-power-of-two accuracy the registry histograms give.
_UNBOUNDED = {"min_value": float("-inf"), "max_value": float("inf")}


@dataclass
class WindowFrame:
    """Metric deltas over one closed window span.

    ``index`` is the fixed window grid slot the frame *starts* at
    (``start_ns = index * window_ns``); ``windows`` is how many grid
    slots the frame spans (> 1 when the clock jumped several windows
    between ticks).  Rates are normalised per single window so a long
    frame does not masquerade as a burst.  A row of ``hists`` keeps the
    delta as ``[count, total, {bucket: n}]``.
    """

    index: int
    start_ns: float
    end_ns: float
    windows: int
    counters: Dict[MetricKey, float] = field(default_factory=dict)
    gauges: Dict[MetricKey, float] = field(default_factory=dict)
    hists: Dict[MetricKey, Histogram] = field(default_factory=dict)

    # -- per-window queries ----------------------------------------------------
    #
    # A closed frame is immutable; the first metric query builds a
    # (subsystem, name) -> {node: delta} index so the SLO engine's seven
    # objectives cost one counter scan per frame, not seven.

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

    def rate_total(self, subsystem: str, name: str) -> float:
        return self.delta_total(subsystem, name) / self.windows

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
            "hists": [
                [k[0], k[1], k[2],
                 [h.count, h.total, {str(i): n for i, n in enumerate(h.buckets) if n}]]
                for k, h in sorted(self.hists.items())
            ],
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
        for node, sub, name, (count, total, sparse) in data.get("hists", []):
            buckets = [0] * N_BUCKETS
            for idx, n in (sparse or {}).items():
                buckets[int(idx)] = int(n)
            frame.hists[(node, sub, name)] = Histogram(
                count=int(count), total=float(total), buckets=buckets, **_UNBOUNDED)
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
        self._base_hists: Dict[MetricKey, Tuple[int, float, Tuple[int, ...]]] = {}

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
        reg = self.registry
        self._base_counters = dict(reg.counters)
        self._base_hists = {
            k: (h.count, h.total, tuple(h.buckets)) for k, h in reg.histograms.items()
        }

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
        base_h = self._base_hists
        for key, hist in reg.histograms.items():
            b_count, b_total, b_buckets = base_h.get(key, (0, 0.0, None))
            d_count = hist.count - b_count
            if not d_count:
                continue
            if b_buckets is None:
                buckets = list(hist.buckets)
            else:
                buckets = [n - b_buckets[i] for i, n in enumerate(hist.buckets)]
            frame.hists[key] = Histogram(
                count=d_count, total=hist.total - b_total, buckets=buckets, **_UNBOUNDED)
        return frame
