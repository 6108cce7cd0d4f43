"""Active health: windowed SLOs, burn-rate alerts, and a crash flight
recorder over the rack's passive telemetry.

The passive layer (:mod:`repro.telemetry`) records what happened; this
package closes the loop — it decides when what happened is *bad*
(:mod:`.slo`), feeds the CE/UE burn alerts into the self-healing
pipeline's failure predictor so pages are evacuated before they kill a
workload, and keeps a bounded black box (:mod:`.recorder`) that dumps on
node crash, UE storm, or invariant failure for ``python -m
repro.telemetry postmortem``.

Everything is simulated-time driven and observation-only: a
:meth:`HealthEngine.tick` never advances a clock, so enabling health
changes no golden latency by even one nanosecond.
"""

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
from .windows import WindowAggregator, WindowFrame

__all__ = [
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
]
