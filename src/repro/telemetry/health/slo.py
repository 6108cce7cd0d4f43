"""Declarative service-level objectives with burn-rate alerting.

An :class:`Objective` names what "good" means for one signal — a hit
ratio, a latency ceiling, an event-rate budget — and how aggressively
to page on budget burn.  The :class:`SLOEngine` folds every closed
:class:`~repro.telemetry.health.windows.WindowFrame` into per-scope burn
histories and runs the classic multi-window burn-rate rule: an alert
*fires* when both the fast (short) and slow (long) window averages
exceed their thresholds, and *resolves* once both drop back below.

Scopes: every objective is evaluated rack-wide (counters summed across
nodes); objectives with ``per_node=True`` additionally get one scope per
observing node.  Alert identifiers are deterministic — a digest of
``(objective, scope, fired window index)`` — so two same-seed runs fire
byte-identical alerts.

Three objective kinds:

* ``ratio``   — ``good`` / (``good`` + ``bad``) counters; the error
  fraction per window is the bad share, the budget is ``1 - target``.
* ``latency`` — a histogram; the error fraction is the share of window
  samples at or above ``threshold_ns``, budget is ``1 - target``.
* ``rate``    — a counter; burn is events-per-window over
  ``budget_per_window`` directly (no target fraction).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from hashlib import sha256
from itertools import islice
from typing import Deque, Dict, List, Optional, Tuple

from ..registry import RACK_WIDE
from .windows import WindowFrame

KINDS = ("ratio", "latency", "rate")


def scope_label(node: int) -> str:
    return "rack" if node == RACK_WIDE else f"node{node}"


@dataclass(frozen=True)
class Objective:
    """One declarative SLO."""

    name: str
    kind: str
    subsystem: str
    #: ``ratio``: the success / failure counters.
    good: str = ""
    bad: str = ""
    #: ``latency``: histogram name; ``rate``: counter name.
    metric: str = ""
    #: ``ratio`` / ``latency``: the good-fraction target (budget = 1 - target).
    target: float = 0.999
    #: ``latency``: samples at/above this are budget burn.
    threshold_ns: float = 0.0
    #: ``rate``: allowed events per window (burn = observed / budget).
    budget_per_window: float = 1.0
    per_node: bool = True
    #: Burn-rate windows (in closed frames) and thresholds.
    fast_windows: int = 1
    slow_windows: int = 6
    fast_burn: float = 14.4
    slow_burn: float = 6.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}; know {KINDS}")
        if self.kind == "ratio" and not (self.good and self.bad):
            raise ValueError(f"ratio objective {self.name!r} needs good and bad counters")
        if self.kind in ("latency", "rate") and not self.metric:
            raise ValueError(f"{self.kind} objective {self.name!r} needs a metric")
        if self.kind in ("ratio", "latency") and not 0.0 < self.target < 1.0:
            raise ValueError(f"objective {self.name!r} target must be in (0, 1)")
        if self.kind == "rate" and self.budget_per_window <= 0:
            raise ValueError(f"objective {self.name!r} budget_per_window must be positive")

    @property
    def budget(self) -> float:
        """Error budget as a fraction (ratio/latency kinds)."""
        return 1.0 - self.target


@dataclass
class Alert:
    """One burn-rate alert through its lifecycle."""

    alert_id: str
    objective: str
    node: int
    fired_window: int
    fired_ns: float
    fast_burn: float
    slow_burn: float
    state: str = "firing"
    resolved_window: Optional[int] = None
    resolved_ns: Optional[float] = None

    @property
    def scope(self) -> str:
        return scope_label(self.node)

    def to_dict(self) -> dict:
        return {
            "alert_id": self.alert_id,
            "objective": self.objective,
            "node": self.node,
            "fired_window": self.fired_window,
            "fired_ns": self.fired_ns,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
            "state": self.state,
            "resolved_window": self.resolved_window,
            "resolved_ns": self.resolved_ns,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Alert":
        return cls(**data)


def alert_id(objective: str, node: int, fired_window: int) -> str:
    """Deterministic alert identity: same inputs, same id, every run."""
    return sha256(f"{objective}|{node}|{fired_window}".encode("utf-8")).hexdigest()[:12]


def default_objectives() -> Tuple[Objective, ...]:
    """The rack's stock SLO set: the headline dashboard panels, as alerts."""
    return (
        Objective(
            name="cache.hit_ratio", kind="ratio", subsystem="rack.machine",
            good="cache.hit", bad="cache.miss", target=0.90,
        ),
        Objective(
            name="tlb.hit_ratio", kind="ratio", subsystem="core.memory",
            good="tlb.hit", bad="tlb.miss", target=0.90,
        ),
        Objective(
            name="page_cache.hit_ratio", kind="ratio", subsystem="core.fs",
            good="page_cache.hit", bad="page_cache.miss", target=0.90,
        ),
        Objective(
            name="rpc.p99", kind="latency", subsystem="core.ipc",
            metric="rpc.migration_ns", target=0.99, threshold_ns=1e6,
        ),
        # rate thresholds assume the zero-padded slow mean: a burst must
        # carry slow_burn * slow_windows budgets of events to page, so a
        # lone CE/UE never does and a storm always does
        Objective(
            name="ce.rate", kind="rate", subsystem="reliability",
            metric="fault.ce", budget_per_window=2.0,
            fast_burn=3.0, slow_burn=1.0,
        ),
        Objective(
            name="ue.rate", kind="rate", subsystem="reliability",
            metric="fault.ue", budget_per_window=0.5,
            fast_burn=2.0, slow_burn=1.0,
        ),
        Objective(
            name="repair.fail_rate", kind="rate", subsystem="reliability",
            metric="repair.fail", budget_per_window=0.5,
            fast_burn=2.0, slow_burn=0.5,
        ),
    )


class SLOEngine:
    """Evaluates objectives against closed window frames."""

    def __init__(self, objectives: Optional[Tuple[Objective, ...]] = None) -> None:
        self.objectives: Tuple[Objective, ...] = (
            tuple(objectives) if objectives is not None else default_objectives()
        )
        names = [o.name for o in self.objectives]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate objective names: {sorted(names)}")
        #: (objective, node) -> recent burn samples, newest last.
        self._history: Dict[Tuple[str, int], Deque[float]] = {}
        #: (objective, node) -> the currently firing alert.
        self.active: Dict[Tuple[str, int], Alert] = {}
        #: every alert ever fired, in fire order.
        self.alerts: List[Alert] = []

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, frame: WindowFrame) -> List[Alert]:
        """Fold one frame in; returns alerts that changed state."""
        changed: List[Alert] = []
        for obj in self.objectives:
            samples = self._burn_samples(obj, frame)
            for node in sorted(samples):
                key = (obj.name, node)
                history = self._history.get(key)
                if history is None:
                    history = self._history[key] = deque(maxlen=max(obj.slow_windows, obj.fast_windows))
                history.append(samples[node])
                changed.extend(self._transition(obj, node, history, frame))
        return changed

    def _burn_samples(self, obj: Objective, frame: WindowFrame) -> Dict[int, float]:
        """Burn sample per scope node for this frame (RACK_WIDE = aggregate).

        Scopes with no traffic this frame contribute no ratio/latency
        sample (no information) but always contribute a zero rate sample
        once tracked, so rate alerts resolve when the storm passes.
        """
        samples: Dict[int, float] = {}
        if obj.kind == "ratio":
            good = frame.per_node(obj.subsystem, obj.good)
            bad = frame.per_node(obj.subsystem, obj.bad)
            nodes = set(good) | set(bad)
            for node in nodes:
                g, b = good.get(node, 0.0), bad.get(node, 0.0)
                if g + b > 0 and node != RACK_WIDE and obj.per_node:
                    samples[node] = (b / (g + b)) / obj.budget
            g, b = sum(good.values()), sum(bad.values())
            if g + b > 0:
                samples[RACK_WIDE] = (b / (g + b)) / obj.budget
        elif obj.kind == "latency":
            if obj.per_node:
                for (node, sub, name), hist in frame.hists.items():
                    if sub != obj.subsystem or name != obj.metric or node == RACK_WIDE:
                        continue
                    if hist.count:
                        samples[node] = hist.fraction_above(obj.threshold_ns) / obj.budget
            merged = frame.hist_merged(obj.subsystem, obj.metric)
            if merged is not None and merged.count:
                samples[RACK_WIDE] = merged.fraction_above(obj.threshold_ns) / obj.budget
        else:  # rate
            per_node = frame.per_node(obj.subsystem, obj.metric)
            if per_node:
                # a scope starts being tracked on its first nonzero delta;
                # a calm run never pays for idle rate objectives
                if obj.per_node:
                    for node, delta in per_node.items():
                        if node != RACK_WIDE:
                            samples[node] = (delta / frame.windows) / obj.budget_per_window
                samples[RACK_WIDE] = (
                    sum(per_node.values()) / frame.windows
                ) / obj.budget_per_window
            # zero-fill every scope already tracked so bursts decay to rest
            for name, node in self._history:
                if name == obj.name and node not in samples:
                    samples[node] = 0.0
        return samples

    def _transition(
        self, obj: Objective, node: int, history: Deque[float], frame: WindowFrame
    ) -> List[Alert]:
        fast = _tail_mean(history, obj.fast_windows)
        slow = _tail_mean(history, obj.slow_windows)
        key = (obj.name, node)
        active = self.active.get(key)
        end_window = frame.index + frame.windows
        if active is None:
            if fast >= obj.fast_burn and slow >= obj.slow_burn:
                alert = Alert(
                    alert_id=alert_id(obj.name, node, end_window),
                    objective=obj.name,
                    node=node,
                    fired_window=end_window,
                    fired_ns=frame.end_ns,
                    fast_burn=fast,
                    slow_burn=slow,
                )
                self.active[key] = alert
                self.alerts.append(alert)
                return [alert]
        elif fast < obj.fast_burn and slow < obj.slow_burn:
            active.state = "resolved"
            active.resolved_window = end_window
            active.resolved_ns = frame.end_ns
            del self.active[key]
            return [active]
        return []

    # -- queries ---------------------------------------------------------------


def _tail_mean(history: Deque[float], n: int) -> float:
    """Mean of the last ``n`` burn samples, zero-padding missing windows.

    A scope with a short history (it just appeared, or the run just
    started) must not page off one blip: absent windows carry no burn,
    so the divisor is always ``n`` — the slow average genuinely needs
    ``n`` windows of evidence to cross its threshold.
    """
    if n <= 0:
        return 0.0
    return sum(islice(reversed(history), n)) / n
