"""End-to-end fault handling for fault boxes (§3.6).

The coordinator glues the FlacDK pipeline (monitor → predict → detect)
to the box abstraction: a detected fault is mapped to the boxes whose
state it touches (*blast radius*), each affected box is recovered
according to its redundancy mode, and every other box keeps running
untouched — the paper's claim that a single failure must not propagate
across applications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ...flacdk.reliability import HealthMonitor
from ...rack.faults import FaultEvent, FaultKind
from ...rack.machine import NodeContext
from .fault_box import FaultBox, FaultBoxManager
from .redundancy import AdaptiveRedundancyPolicy, RedundancyMode
from .replication import PartialReplicator


@dataclass
class BoxRecovery:
    box_id: int
    box_name: str
    mode: RedundancyMode
    pages_restored: int
    recovered_to_node: int
    duration_ns: float


@dataclass
class IncidentReport:
    """What one fault event cost the system."""

    event: FaultEvent
    blast_radius_boxes: int
    total_boxes: int
    recoveries: List[BoxRecovery] = field(default_factory=list)
    unaffected_boxes: int = 0


class FaultRecoveryCoordinator:
    """Maps fault events to per-box recovery actions."""

    def __init__(
        self,
        manager: FaultBoxManager,
        policy: AdaptiveRedundancyPolicy,
        replicator: Optional[PartialReplicator] = None,
        monitor: Optional[HealthMonitor] = None,
    ) -> None:
        self.manager = manager
        self.policy = policy
        self.replicator = replicator
        self.monitor = monitor

    def handle_memory_fault(self, ctx: NodeContext, event: FaultEvent) -> IncidentReport:
        """React to an uncorrectable memory error at ``event.addr``."""
        if event.kind is not FaultKind.UNCORRECTABLE or event.addr is None:
            raise ValueError("handle_memory_fault expects a UE event with an address")
        hit = self.manager.boxes_hit_by(ctx, event.addr)
        report = IncidentReport(
            event=event,
            blast_radius_boxes=len(hit),
            total_boxes=len(self.manager.boxes),
            unaffected_boxes=len(self.manager.boxes) - len(hit),
        )
        for box in hit:
            self.manager.mark_failed(box)
            report.recoveries.append(self._recover_box(ctx, box))
        return report

    def handle_node_crash(self, ctx: NodeContext, dead_node: int) -> IncidentReport:
        """Recover every box homed on a crashed node, onto ``ctx``'s node."""
        hit = [b for b in self.manager.boxes.values() if b.home_node == dead_node]
        event = FaultEvent(kind=FaultKind.NODE_CRASH, time_ns=ctx.now(), node_id=dead_node)
        report = IncidentReport(
            event=event,
            blast_radius_boxes=len(hit),
            total_boxes=len(self.manager.boxes),
            unaffected_boxes=len(self.manager.boxes) - len(hit),
        )
        for box in hit:
            self.manager.mark_failed(box)
            report.recoveries.append(self._recover_box(ctx, box))
        return report

    def _recover_box(self, ctx: NodeContext, box: FaultBox) -> BoxRecovery:
        start = ctx.now()
        decision = self.policy.decide(box)
        pages = 0
        if decision.mode is RedundancyMode.REPLICATE and self.replicator is not None:
            pages = self.replicator.failover(ctx, box)
        elif decision.mode in (RedundancyMode.CHECKPOINT, RedundancyMode.NMODULAR):
            # NMODULAR tasks also keep checkpoints for state (voting covers
            # outputs); restore from the latest snapshot if one exists
            if self.manager.latest_snapshot(box) is not None:
                pages = self.manager.restore(ctx, box)
            else:
                box.failed = False  # NONE-equivalent: restart from scratch
        else:
            box.failed = False
        return BoxRecovery(
            box_id=box.box_id,
            box_name=box.name,
            mode=decision.mode,
            pages_restored=pages,
            recovered_to_node=ctx.node_id,
            duration_ns=ctx.now() - start,
        )
