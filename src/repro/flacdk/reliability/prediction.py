"""Failure prediction from correctable-error history (§3.2).

Field studies the paper cites ([13, 39, 55]) show uncorrectable errors
are preceded by rising correctable-error rates on the same page/device.
The predictor keeps an EWMA of CE counts per page; pages whose score
crosses the threshold are flagged for proactive migration before they
fail — the fault-box migration path consumes these flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .monitor import HealthMonitor

#: EWMA smoothing factor: weight of the newest observation.
ALPHA = 0.4
#: Score above which a page is declared at risk.
THRESHOLD = 2.0


@dataclass
class PageRisk:
    page_addr: int
    score: float
    at_risk: bool


@dataclass
class FailurePredictor:
    """EWMA-scored per-page failure risk."""

    monitor: HealthMonitor
    _scores: Dict[int, float] = field(default_factory=dict)

    def observe(self, now_ns: float) -> None:
        """Fold the current window's CE counts into the scores."""
        window_counts = self.monitor.ce_count_by_page(now_ns)
        for page in set(self._scores) | set(window_counts):
            fresh = window_counts.get(page, 0)
            prior = self._scores.get(page, 0.0)
            self._scores[page] = ALPHA * fresh + (1 - ALPHA) * prior

    def at_risk_pages(self) -> List[PageRisk]:
        """Pages currently above the threshold, riskiest first."""
        risks = [
            PageRisk(page, score, True)
            for page, score in self._scores.items()
            if score >= THRESHOLD
        ]
        return sorted(risks, key=lambda r: -r.score)

    def boost_page(self, page_addr: int, score: float) -> None:
        """External evidence (a firing CE/UE burn-rate alert) marks a
        page at risk directly.

        The score only ratchets upward — a boost never erases organic
        CE history — and still decays through :meth:`observe` like any
        other evidence, so a boosted page that stays quiet ages out.
        """
        if score > self._scores.get(page_addr, 0.0):
            self._scores[page_addr] = score

    def reset_page(self, page_addr: int) -> None:
        """Forget a page's history (it was evacuated/retired)."""
        self._scores.pop(page_addr, None)
