"""The rack-wide metrics registry.

Every metric is keyed ``(node, subsystem, name)``: the node observing it
(``-1`` for rack-wide events with no single observer), the subsystem
that owns it (``"rack.machine"``, ``"core.ipc"``, ``"reliability"``,
``"fabric"``, ``"traffic/<tenant>"``, ...), and a dotted metric name
(``"cache.hit"``, ``"ipc.zero_copy_send_ns"``).  Three metric kinds
cover the substrate:

* **counters** — monotone event counts (cache hits, UEs, repairs);
* **gauges** — last-written values (pages evacuated);
* **histograms** — value distributions over *fixed log-scale buckets*
  (operation latencies in simulated ns), so two runs that observe the
  same values produce bit-identical bucket arrays.

Nothing here advances a simulated clock: recording a metric is free in
simulated time (the instrumentation-overhead budget is *host* CPU only,
and the data plane guards every call behind one attribute check).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256
from typing import Dict, List, Optional, Tuple

import numpy as np

#: One metric's identity: (node, subsystem, name).
MetricKey = Tuple[int, str, str]

#: Node id used for rack-wide metrics with no single observing node.
RACK_WIDE = -1

#: Histogram bucket upper bounds: powers of two from 1 ns to ~18 min of
#: simulated time, plus an overflow bucket.  Fixed for every histogram so
#: exports and digests are stable across runs and machines.
N_BUCKETS = 42  # indices 0..40 = bounds 2^0..2^40, index 41 = overflow
BUCKET_BOUNDS: Tuple[float, ...] = tuple(float(1 << i) for i in range(41))
#: Array form for the vectorized bucket search (``observe_batch``).
_BOUNDS_ARR = np.asarray(BUCKET_BOUNDS, dtype=np.float64)


def bucket_index(value: float) -> int:
    """Index of the log-scale bucket holding ``value``.

    Bucket ``i`` (for ``i <= 40``) holds values in ``(2^(i-1), 2^i]``;
    bucket 0 holds everything ``<= 1`` (including zero and negatives,
    which the simulator never produces but must not crash on).
    """
    if value <= 1.0:
        return 0
    iv = int(value)
    if float(iv) < value:
        iv += 1  # ceil: 2.5 belongs with upper bound 4, not 2
    idx = (iv - 1).bit_length()
    return idx if idx <= 40 else 41


@dataclass
class Histogram:
    """Fixed-bucket log-scale histogram with exact count/sum/min/max."""

    count: int = field(default=0, init=False)
    total: float = field(default=0.0, init=False)
    min_value: float = field(default=float("inf"), init=False)
    max_value: float = field(default=float("-inf"), init=False)
    buckets: List[int] = field(default_factory=lambda: [0] * N_BUCKETS, init=False)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        self.buckets[bucket_index(value)] += 1

    def observe_batch(self, values) -> None:
        """Observe many values in one vectorized pass.

        Exactly equivalent to a loop of :meth:`observe`: the bucket
        search (``searchsorted`` against the fixed bounds, side="left")
        lands every value in the same bucket ``bucket_index`` would, and
        the running sum uses a strict left fold (``np.add.accumulate``)
        so the float total is bit-identical to sequential adds.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        self.count += int(values.size)
        self.total += float(np.add.accumulate(values)[-1])
        # ufunc reductions and ndarray methods: numpy's Python wrappers cost frames
        lo = float(np.minimum.reduce(values))
        hi = float(np.maximum.reduce(values))
        if lo < self.min_value:
            self.min_value = lo
        if hi > self.max_value:
            self.max_value = hi
        idx = _BOUNDS_ARR.searchsorted(values, side="left")
        per_bucket = np.bincount(idx, minlength=N_BUCKETS)
        buckets = self.buckets
        for i in per_bucket.nonzero()[0]:
            buckets[int(i)] += int(per_bucket[i])

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 < q <= 1) from the buckets.

        Returns the geometric midpoint of the bucket containing the
        quantile rank, clamped to the exact observed min/max — good to
        within one power of two, which is all a log-scale latency
        breakdown needs.  An empty histogram reports ``0.0`` (a NaN here
        poisons downstream arithmetic and serialises as ``null``);
        ``q`` outside ``(0, 1]`` is a caller bug and raises.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = max(1, int(q * self.count + 0.999999))
        seen = 0
        for idx, n in enumerate(self.buckets):
            seen += n
            if seen >= rank:
                rep = self._bucket_midpoint(idx)
                return min(max(rep, self.min_value), self.max_value)
        return self.max_value

    @staticmethod
    def _bucket_midpoint(idx: int) -> float:
        if idx == 0:
            return 1.0
        if idx >= 41:
            return float(1 << 41)
        hi = float(1 << idx)
        lo = float(1 << (idx - 1))
        return (lo * hi) ** 0.5

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min_value if self.count else None,
            "max": self.max_value if self.count else None,
            # sparse encoding keeps exports small; indices are strings
            # because JSON object keys must be
            "buckets": {str(i): n for i, n in enumerate(self.buckets) if n},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        h = cls()
        h.count, h.total = data["count"], data["sum"]
        if h.count:
            h.min_value, h.max_value = data["min"], data["max"]
        for idx, n in data["buckets"].items():
            h.buckets[int(idx)] = n
        return h


def merged_histogram(
    hists: Dict[MetricKey, Histogram], subsystem: str, name: str
) -> Optional[Histogram]:
    """Every node's ``subsystem``/``name`` histogram in ``hists`` folded
    into one, or None when no node has one."""
    merged: Optional[Histogram] = None
    for (_node, s, m), h in hists.items():
        if s != subsystem or m != name:
            continue
        if merged is None:
            merged = Histogram()
        merged.count += h.count
        merged.total += h.total
        merged.min_value = min(merged.min_value, h.min_value)
        merged.max_value = max(merged.max_value, h.max_value)
        for i, c in enumerate(h.buckets):
            merged.buckets[i] += c
    return merged


class MetricsRegistry:
    """All metrics of one run, keyed ``(node, subsystem, name)``.

    Instrumentation sites call :meth:`inc` / :meth:`set_gauge` /
    :meth:`observe`; exporters call :meth:`snapshot`.
    """

    def __init__(self) -> None:
        self.counters: Dict[MetricKey, float] = {}
        self.gauges: Dict[MetricKey, float] = {}
        self.histograms: Dict[MetricKey, Histogram] = {}

    # -- write side ------------------------------------------------------------

    def inc(self, node: int, subsystem: str, name: str, delta: float = 1.0) -> None:
        key = (node, subsystem, name)
        self.counters[key] = self.counters.get(key, 0.0) + delta

    def add(self, key: MetricKey, delta: float = 1.0) -> None:
        """Bulk-increment a counter by a prebuilt key.

        The batch-path form of :meth:`inc`: one dict lookup per batch
        instead of one per op, no key tuple rebuilt.
        Counter deltas are small integers well inside float53, so one
        aggregated add lands on exactly the value ``n`` unit incs would.
        """
        self.counters[key] = self.counters.get(key, 0.0) + delta

    def set_gauge(self, node: int, subsystem: str, name: str, value: float) -> None:
        self.gauges[(node, subsystem, name)] = value

    def observe(self, node: int, subsystem: str, name: str, value: float) -> None:
        key = (node, subsystem, name)
        hist = self.histograms.get(key)
        if hist is None:
            hist = self.histograms[key] = Histogram()
        hist.observe(value)

    def observe_batch(self, node: int, subsystem: str, name: str, values) -> None:
        """Vectorized :meth:`observe` over a whole batch of values."""
        key = (node, subsystem, name)
        hist = self.histograms.get(key)
        if hist is None:
            hist = self.histograms[key] = Histogram()
        hist.observe_batch(values)

    def clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    # -- read side -------------------------------------------------------------

    def counter_total(self, subsystem: str, name: str) -> float:
        """Sum of one counter across every node."""
        return sum(
            v for (n, s, m), v in self.counters.items() if s == subsystem and m == name
        )

    def subsystems(self) -> List[str]:
        seen = {k[1] for k in self.counters}
        seen.update(k[1] for k in self.gauges)
        seen.update(k[1] for k in self.histograms)
        return sorted(seen)

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready snapshot: sorted keys, deterministic layout."""
        return {
            "counters": [
                [k[0], k[1], k[2], v] for k, v in sorted(self.counters.items())
            ],
            "gauges": [[k[0], k[1], k[2], v] for k, v in sorted(self.gauges.items())],
            "histograms": [
                [k[0], k[1], k[2], h.to_dict()]
                for k, h in sorted(self.histograms.items())
            ],
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "MetricsRegistry":
        reg = cls()
        for node, subsystem, name, value in data["counters"]:
            reg.counters[(node, subsystem, name)] = value
        for node, subsystem, name, value in data["gauges"]:
            reg.gauges[(node, subsystem, name)] = value
        for node, subsystem, name, hdict in data["histograms"]:
            reg.histograms[(node, subsystem, name)] = Histogram.from_dict(hdict)
        return reg

    # -- determinism digest ----------------------------------------------------

    def delta_digest(self, baseline: Optional[dict] = None) -> str:
        """SHA-256 over the sorted *monotone* metric deltas since ``baseline``.

        ``baseline`` is a prior :meth:`counter_baseline`; only counters
        and histogram ``(count, sum)`` pairs participate — they are
        monotone, so the delta of a run is independent of whatever ran
        before it in the same process.  Two identical runs therefore
        produce identical digests even against a dirty registry, which
        is what the chaos journal's byte-identity guarantee needs.
        """
        base_counters = (baseline or {}).get("counters", {})
        base_hists = (baseline or {}).get("histograms", {})
        lines = []
        for key in sorted(self.counters):
            delta = self.counters[key] - base_counters.get(key, 0.0)
            if delta:
                lines.append(f"c {key[0]} {key[1]} {key[2]} {delta:.6f}")
        for key in sorted(self.histograms):
            hist = self.histograms[key]
            b_count, b_sum = base_hists.get(key, (0, 0.0))
            d_count = hist.count - b_count
            d_sum = hist.total - b_sum
            if d_count:
                lines.append(f"h {key[0]} {key[1]} {key[2]} {d_count} {d_sum:.6f}")
        return sha256("\n".join(lines).encode("utf-8")).hexdigest()

    def counter_baseline(self) -> dict:
        """Cheap monotone-state capture for a later :meth:`delta_digest`."""
        return {
            "counters": dict(self.counters),
            "histograms": {k: (h.count, h.total) for k, h in self.histograms.items()},
        }


def rate(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0

