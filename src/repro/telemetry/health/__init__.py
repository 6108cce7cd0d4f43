"""Active health: windowed SLOs, burn-rate alerts, anomaly detection,
and a crash flight recorder over the rack's passive telemetry.

The passive layer (:mod:`repro.telemetry`) records what happened; this
package closes the loop — it decides when what happened is *bad*
(:mod:`.slo`), when it is *about to get worse* (:mod:`.anomaly`), feeds
those calls into the self-healing pipeline's failure predictor so pages
are evacuated before they kill a workload, and keeps a bounded black box
(:mod:`.recorder`) that dumps on node crash, UE storm, or invariant
failure for ``python -m repro.telemetry.health postmortem``.

Everything is simulated-time driven and observation-only: a
:meth:`HealthEngine.tick` never advances a clock, so enabling health
changes no golden latency by even one nanosecond.
"""

from .anomaly import (
    Anomaly,
    AnomalyDetector,
    CeSlopeDetector,
    RepairStreakDetector,
    ScrubTrendDetector,
)
from .engine import HealthEngine
from .postmortem import render_postmortem
from .recorder import FLIGHT_SCHEMA, FlightRecorder, load_dump
from .slo import (
    Alert,
    Objective,
    SLOEngine,
    alert_id,
    default_objectives,
    scope_label,
)
from .windows import WindowAggregator, WindowFrame, WindowHist

__all__ = [
    "Anomaly",
    "AnomalyDetector",
    "CeSlopeDetector",
    "RepairStreakDetector",
    "ScrubTrendDetector",
    "HealthEngine",
    "render_postmortem",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "load_dump",
    "Alert",
    "Objective",
    "SLOEngine",
    "alert_id",
    "default_objectives",
    "scope_label",
    "WindowAggregator",
    "WindowFrame",
    "WindowHist",
]
