"""The health engine: windows -> SLO burn -> predictor -> flight recorder.

One :class:`HealthEngine` owns the whole active-observability loop for a
rack.  ``tick(now_ns)`` is the only heartbeat: it closes elapsed metric
windows, evaluates every SLO's burn rate, feeds a firing CE/UE burn
alert to the failure predictor (so the scrubber evacuates suspect pages
while they are still readable), and arms the flight recorder's dump
triggers.

The engine *observes* — a tick never advances a simulated clock, so
golden latencies are bit-identical with health enabled.  The *actions*
it provokes (predictor-driven evacuation) run inside the existing
repair/scrub pipeline and are charged there, exactly as if an operator
had reacted to the page.

Dump triggers:

* **node crash** — installed via :meth:`RackMachine.on_crash`;
* **UE storm** — a single frame whose rack-wide UE delta reaches
  :data:`UE_STORM_DUMP` (latched: one dump per storm, re-armed by a calm frame);
* **invariant failure** — the chaos runner reports violations here.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Tuple, Union

from ...flacdk.reliability import prediction
from .. import TELEMETRY
from .recorder import FlightRecorder
from .slo import Objective, SLOEngine
from .windows import WindowAggregator, WindowFrame

_REL = "reliability"
_PAGE = 4096
#: rack-wide UEs in one window that trigger a storm dump
UE_STORM_DUMP = 4.0
#: most pages one firing alert hands the predictor per tick
BOOST_PAGES = 8


class HealthEngine:
    """Continuous health tracking for one booted rack.

    The engine windows the telemetry registry, reads the kernel's fault
    monitor and feeds its failure predictor;
    :meth:`FlacOS.attach_health <repro.core.kernel.FlacOS.attach_health>`
    builds it.
    """

    def __init__(
        self,
        kernel,
        *,
        window_ns: float = 1e6,
        objectives: Optional[Tuple[Objective, ...]] = None,
        recorder: Optional[FlightRecorder] = None,
        dump_path: Optional[Union[str, pathlib.Path]] = None,
    ) -> None:
        self.machine = kernel.machine
        self.windows = WindowAggregator(TELEMETRY.registry, window_ns=window_ns)
        self.slo = SLOEngine(objectives)
        self.monitor = kernel.monitor
        self.predictor = kernel.predictor
        self.recorder = recorder if recorder is not None else FlightRecorder()
        self.dump_path = pathlib.Path(dump_path) if dump_path is not None else None
        #: every snapshot taken, in trigger order (reason, snapshot dict).
        self.dumps: List[dict] = []
        #: pages handed to the predictor, page addr -> cause.
        self.boosted: Dict[int, str] = {}
        self._storm_armed = True
        self._installed = False

    # -- wiring ----------------------------------------------------------------

    def install(self) -> "HealthEngine":
        """Register the node-crash dump trigger on the machine."""
        if not self._installed:
            self.machine.on_crash(self._on_node_crash)
            self._installed = True
        return self

    # -- the heartbeat ---------------------------------------------------------

    def tick(self, now_ns: Optional[float] = None) -> List[str]:
        """Advance the health loop to ``now_ns`` (default: rack max time).

        Returns deterministic one-line descriptions of every state
        transition this tick produced (alerts fired/resolved, predictor
        boosts, dumps) — the chaos runner journals them verbatim.
        """
        if now_ns is None:
            now_ns = self.machine.max_time()
        frame = self.windows.tick(now_ns)
        if frame is None:
            return []
        lines: List[str] = []
        self.recorder.record_frame(frame)

        for alert in self.slo.evaluate(frame):
            self.recorder.record_alert(alert)
            if alert.state == "firing":
                lines.append(
                    f"health alert=firing id={alert.alert_id} objective={alert.objective} "
                    f"scope={alert.scope} fast={alert.fast_burn:.2f} slow={alert.slow_burn:.2f}"
                )
            else:
                lines.append(
                    f"health alert=resolved id={alert.alert_id} "
                    f"objective={alert.objective} scope={alert.scope}"
                )

        # a firing UE/CE burn alert keeps marking the culprit pages at
        # risk until it resolves: evacuation is idempotent per page
        for (objective, _node), _alert in sorted(self.slo.active.items()):
            if objective in ("ue.rate", "ce.rate"):
                lines.extend(self._feed_predictor(frame, cause=objective))
                break

        ue_delta = frame.delta_total(_REL, "fault.ue")
        if ue_delta >= UE_STORM_DUMP and self._storm_armed:
            self._storm_armed = False
            lines.append(self._dump("ue_storm", frame.end_ns))
        elif ue_delta == 0:
            self._storm_armed = True
        return lines

    # -- prediction feed -------------------------------------------------------

    def _feed_predictor(self, frame: WindowFrame, cause: str) -> List[str]:
        """Mark the frame's fault-dense pages at risk with the predictor.

        The boost lifts the page's EWMA score above the evacuation
        threshold with enough margin to survive one decay, so the next
        scrub step moves it via the existing repair pipeline.
        """
        predictor = self.predictor
        pages = self._suspect_pages(frame)
        fresh = [p for p in pages if p not in self.boosted]
        if not fresh:
            return []
        margin = prediction.THRESHOLD / max(1e-9, 1.0 - prediction.ALPHA) * 1.25
        for page in fresh[:BOOST_PAGES]:
            predictor.boost_page(page, margin)
            self.boosted[page] = cause
        boosted = fresh[:BOOST_PAGES]
        self.recorder.record_boost(
            {"t_ns": frame.end_ns, "cause": cause, "pages": list(boosted)}
        )
        return [
            "health boost cause=" + cause + " pages=" + ",".join(f"{p:#x}" for p in boosted)
        ]

    def _suspect_pages(self, frame: WindowFrame) -> List[int]:
        """Global pages implicated by this frame's CE/UE events, worst first."""
        from ...rack.faults import FaultKind  # late import: faults imports telemetry

        counts: Dict[int, int] = {}
        log = self.machine.faults.log
        for kind, weight in ((FaultKind.UNCORRECTABLE, 4), (FaultKind.CORRECTABLE, 1)):
            for event in log.events(kind, since_ns=frame.start_ns):
                if event.time_ns >= frame.end_ns or event.addr is None:
                    continue
                page = event.addr & ~(_PAGE - 1)
                if self.machine.is_global_addr(page):
                    counts[page] = counts.get(page, 0) + weight
        for page, n in self.monitor.ce_count_by_page(frame.end_ns).items():
            if self.machine.is_global_addr(page):
                counts[page] = counts.get(page, 0) + n
        return [page for page, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]

    # -- dump triggers ---------------------------------------------------------

    def _on_node_crash(self, node_id: int, now_ns: float) -> None:
        self._dump(f"node_crash:{node_id}", now_ns)

    def invariant_failed(self, violation: str, now_ns: Optional[float] = None) -> str:
        """Chaos-runner hook: an invariant was violated — snapshot now."""
        if now_ns is None:
            now_ns = self.machine.max_time()
        return self._dump(f"invariant:{violation}", now_ns)

    def _dump(self, reason: str, now_ns: float) -> str:
        trace = TELEMETRY.trace if TELEMETRY.tracing else None
        snapshot = self.recorder.snapshot(
            reason, now_ns, machine=self.machine, trace=trace
        )
        self.dumps.append(snapshot)
        if self.dump_path is not None:
            text = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
            pathlib.Path(self.dump_path).write_text(text)
        return f"health dump reason={reason} windows={len(snapshot['windows'])}"
