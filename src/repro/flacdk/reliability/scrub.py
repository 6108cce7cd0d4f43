"""Background memory scrubbing and proactive evacuation (§3.2) — the
*detect-early* and *prevent* stages of the self-healing loop.

Consumers only trip on poison when they touch it; a latent uncorrectable
error in a rarely-read page can sit for seconds and then surface in the
middle of a critical section.  The scrubber walks the global region in
fixed windows on the simulated clock (a patrol scrubber, like the ECC
scrub engines in server memory controllers), hands latent poison to the
:class:`~repro.flacdk.reliability.repair.RepairCoordinator` *before* a
consumer finds it, and folds the observed error density into the
:class:`~repro.flacdk.reliability.prediction.FailurePredictor`.

Pages whose predicted risk crosses the threshold are **evacuated**:
their content is moved to a fresh frame (via
``MemorySystem.migrate_global_page`` or a relocation callback) while it
is still readable, and the suspect frame is quarantined — failures that
never happen are the cheapest kind to recover from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ...rack.machine import NodeContext, RackMachine
from ...telemetry import TELEMETRY as _TEL, span as _span
from .prediction import FailurePredictor
from .repair import REPAIR_PAGE, RepairCoordinator

_SUB = "reliability"
#: bytes one patrol step scans unless told otherwise, and what scanning costs
WINDOW_BYTES = 1 << 20
SCRUB_NS_PER_KB = 2.0


@dataclass
class ScrubStats:
    #: complete sweeps of the global region
    passes: int = 0
    windows_scanned: int = 0
    bytes_scanned: int = 0
    #: poisoned pages found before any consumer touched them
    latent_pages_found: int = 0
    repaired: int = 0
    unrepairable: int = 0
    evacuated: int = 0
    evacuation_failures: int = 0
    #: page addr -> new frame for completed evacuations
    evacuations: Dict[int, int] = field(default_factory=dict)


class MemoryScrubber:
    """Patrol scrubber over the rack's global memory region."""

    def __init__(
        self,
        machine: RackMachine,
        repair: Optional[RepairCoordinator] = None,
        predictor: Optional[FailurePredictor] = None,
        evacuate: Optional[Callable[[NodeContext, int], Optional[int]]] = None,
    ) -> None:
        self.machine = machine
        self.repair = repair
        self.predictor = predictor
        #: ``evacuate(ctx, page_addr) -> new frame or None`` (migration hook)
        self.evacuate = evacuate
        self.stats = ScrubStats()
        self._cursor = 0

    # -- one scrub quantum -------------------------------------------------------------

    def step(self, ctx: NodeContext, max_bytes: Optional[int] = None) -> List[int]:
        """Scan the next window; returns the poisoned pages it found.

        Runs as a kernel patrol event.  Each step costs simulated
        time proportional to the bytes patrolled, finds latent poison
        via the machine's scrub query (no fault dice, no data reads),
        repairs it in place, then lets the predictor drive evacuation.
        """
        with _span("reliability.scrub.step", ctx=ctx):
            window = min(max_bytes or WINDOW_BYTES, self.machine.global_size - self._cursor)
            base = self.machine.global_base + self._cursor
            ctx.advance(window / 1024 * SCRUB_NS_PER_KB)
            victims = self.machine.poisoned_addrs(base, window)
            self.stats.windows_scanned += 1
            self.stats.bytes_scanned += window
            self._cursor += window
            if self._cursor >= self.machine.global_size:
                self._cursor = 0
                self.stats.passes += 1
            pages = sorted({v & ~(REPAIR_PAGE - 1) for v in victims})
            for page in pages:
                self.stats.latent_pages_found += 1
                if self.repair is None:
                    continue
                if self.repair.repair(ctx, page).ok:
                    self.stats.repaired += 1
                else:
                    self.stats.unrepairable += 1
            self._feed_predictor_and_evacuate(ctx)
        if _TEL.enabled:
            reg = _TEL.registry
            if pages:
                reg.inc(ctx.node_id, _SUB, "scrub.latent_pages", len(pages))
            reg.set_gauge(ctx.node_id, _SUB, "scrub.evacuated", self.stats.evacuated)
        return pages

    # -- prevention --------------------------------------------------------------------

    def _feed_predictor_and_evacuate(self, ctx: NodeContext) -> None:
        predictor = self.predictor
        if predictor is None:
            return
        predictor.observe(ctx.now())
        if self.evacuate is None:
            return
        for risk in predictor.at_risk_pages():
            page = risk.page_addr
            if page in self.stats.evacuations:
                continue  # already moved off the suspect frame
            if not self.machine.is_global_addr(page):
                continue  # only global frames are ours to move
            try:
                fresh = self.evacuate(ctx, page)
            except Exception:
                self.stats.evacuation_failures += 1
                continue
            if fresh is None:
                self.stats.evacuation_failures += 1
                continue
            self.stats.evacuated += 1
            self.stats.evacuations[page] = fresh
            predictor.reset_page(page)
