"""Trend anomaly detectors over window frames.

Burn-rate alerts catch budgets already on fire; the detectors here catch
the *approach* — the rising correctable-error slope that field studies
say precedes an uncorrectable error, the scrubber finding more latent
poison per patrol, repairs starting to fail in streaks.  Detections are
handed to the failure predictor so evacuation starts while the data is
still readable (§3.2's predict-then-prevent loop).

Detectors are pure functions of the frame history: deterministic,
clock-free, and cheap (a handful of comparisons per closed window).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, Optional

from collections import deque

from .windows import WindowFrame

_REL = "reliability"


@dataclass
class Anomaly:
    """One detection: a trend that predicts trouble."""

    detector: str
    node: int
    window: int
    at_ns: float
    severity: float
    detail: str = ""


class AnomalyDetector:
    """Interface: fold one closed frame, maybe emit an anomaly."""

    name = "abstract"

    def observe(self, frame: WindowFrame) -> Optional[Anomaly]:
        raise NotImplementedError


class CeSlopeDetector(AnomalyDetector):
    """Rack-wide CE rate rising monotonically across recent windows.

    A single storm window is the SLO engine's business; *sustained
    growth* window over window is the predictor's cue that a device is
    degrading.  Fires when the last ``streak`` per-window CE rates are
    strictly increasing and the newest is at least ``min_rate``.
    """

    name = "ce_slope"
    streak = 3
    min_rate = 2.0

    def __init__(self) -> None:
        self._rates: Deque[float] = deque(maxlen=self.streak)

    def observe(self, frame: WindowFrame) -> Optional[Anomaly]:
        rate = frame.rate_total(_REL, "fault.ce")
        self._rates.append(rate)
        if len(self._rates) < self.streak or rate < self.min_rate:
            return None
        rates = list(self._rates)
        if all(b > a for a, b in zip(rates, rates[1:])):
            slope = (rates[-1] - rates[0]) / (self.streak - 1)
            return Anomaly(
                detector=self.name,
                node=-1,
                window=frame.index + frame.windows,
                at_ns=frame.end_ns,
                severity=slope,
                detail=f"ce/window {rates[0]:.1f}->{rates[-1]:.1f} over {self.streak} windows",
            )
        return None


class ScrubTrendDetector(AnomalyDetector):
    """The patrol scrubber is finding more latent poison per window.

    Latent-fault discovery should be flat noise on a healthy rack; a
    growing trend means poison is being created faster than consumers
    touch it — exactly the silent-degradation mode partially coherent
    memory papers warn about.
    """

    name = "scrub_latent_trend"
    streak = 2
    min_pages = 1.0

    def __init__(self) -> None:
        self._rates: Deque[float] = deque(maxlen=self.streak + 1)

    def observe(self, frame: WindowFrame) -> Optional[Anomaly]:
        rate = frame.rate_total(_REL, "scrub.latent_pages")
        self._rates.append(rate)
        if len(self._rates) < self.streak + 1 or rate < self.min_pages:
            return None
        rates = list(self._rates)
        if all(b >= a for a, b in zip(rates, rates[1:])) and rates[-1] > rates[0]:
            return Anomaly(
                detector=self.name,
                node=-1,
                window=frame.index + frame.windows,
                at_ns=frame.end_ns,
                severity=rates[-1],
                detail=f"latent pages/window {rates[0]:.1f}->{rates[-1]:.1f}",
            )
        return None


class RepairStreakDetector(AnomalyDetector):
    """Consecutive windows where repairs failed and none succeeded.

    One failed repair is bad luck (the redundancy source was itself
    hit); a streak means the redundancy tier is exhausted and the next
    UE will surface to the application.
    """

    name = "repair_failure_streak"
    streak = 2

    def __init__(self) -> None:
        self._current = 0

    def observe(self, frame: WindowFrame) -> Optional[Anomaly]:
        failed = frame.delta_total(_REL, "repair.fail")
        succeeded = frame.delta_total(_REL, "repair.ok")
        if failed > 0 and succeeded == 0:
            self._current += 1
        elif succeeded > 0 or failed == 0:
            self._current = 0
        if self._current >= self.streak:
            return Anomaly(
                detector=self.name,
                node=-1,
                window=frame.index + frame.windows,
                at_ns=frame.end_ns,
                severity=float(self._current),
                detail=f"{self._current} consecutive windows of failed repairs",
            )
        return None
