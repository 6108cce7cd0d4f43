"""Adaptive redundancy (§3.6).

Not every application deserves the same protection budget.  FlacOS maps
(task criticality × predicted fault risk) to a redundancy mode:

* ``NONE`` — best effort; recovery restarts from scratch.
* ``CHECKPOINT`` — periodic fault-box snapshots ([27, 52]).
* ``REPLICATE`` — partial replication: a live standby copy of the box's
  dirty state on another region, synced at barriers ([9, 70]).
* ``NMODULAR`` — n-modular execution with output voting ([21, 57]).

The policy engine picks a mode; the executors in this package and in
:mod:`.nmodular` implement them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ...flacdk.reliability import FailurePredictor
from .fault_box import FaultBox


class RedundancyMode(Enum):
    NONE = 0
    CHECKPOINT = 1
    REPLICATE = 2
    NMODULAR = 3


@dataclass
class RedundancyDecision:
    mode: RedundancyMode
    #: snapshot period for CHECKPOINT (simulated ns)
    checkpoint_period_ns: float = 0.0
    reason: str = ""


class AdaptiveRedundancyPolicy:
    """criticality × risk -> redundancy mode."""

    def __init__(self, predictor: Optional[FailurePredictor] = None) -> None:
        self.predictor = predictor

    def decide(self, box: FaultBox, at_risk_pages: Optional[int] = None) -> RedundancyDecision:
        if at_risk_pages is None:
            at_risk_pages = len(self.predictor.at_risk_pages()) if self.predictor else 0
        risky = at_risk_pages > 0
        if box.criticality <= 0:
            return RedundancyDecision(RedundancyMode.NONE, reason="best-effort task")
        if box.criticality == 1:
            period = 5e8 if not risky else 1e8
            return RedundancyDecision(
                RedundancyMode.CHECKPOINT,
                checkpoint_period_ns=period,
                reason="normal task: periodic checkpoint"
                + (", tightened under predicted risk" if risky else ""),
            )
        if box.criticality == 2 or (box.criticality >= 3 and not risky):
            return RedundancyDecision(
                RedundancyMode.REPLICATE, reason="important task: live standby replica"
            )
        return RedundancyDecision(
            RedundancyMode.NMODULAR, reason="critical task under predicted risk: vote n ways"
        )
