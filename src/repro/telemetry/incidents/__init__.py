"""``repro.telemetry.incidents`` — the scored incident benchmark.

The paper's operational claim — a rack operator detects, localizes,
and mitigates shared-memory faults faster with coordinated OS sharing
— needs a closed loop to be *measurable*: inject (``repro.chaos``),
alert (``repro.telemetry.health``), survive (``repro.workloads
.resilience``), then **score**.  This package is the scoring half:

* :mod:`~repro.telemetry.incidents.scenarios` — a catalogue of seeded,
  replayable incidents (UE storms, link flaps, crash cascades, CE slow
  leaks, breaker storms) under open-loop traffic;
* :mod:`~repro.telemetry.incidents.runner` — runs one scenario arm
  (detection on/off) end-to-end on the simulated clock;
* :mod:`~repro.telemetry.incidents.scoring` — MTTD, localization
  precision/recall/F1, MTTM, and blast radius from a flight-recorder
  dump alone, so scores replay offline.

CLI::

    python -m repro.telemetry list
    python -m repro.telemetry run ue-storm --detection both
    python -m repro.telemetry replay DUMP.json
    python -m repro.telemetry score DUMP.json

Everything runs on simulated time: same scenario, same seed —
byte-identical journal, dump, and scores.
"""

from .runner import IncidentResult, run_scenario
from .scenarios import (
    IncidentScenario,
    availability_objective,
    get_scenario,
    scenarios,
    spare_pages,
)
from .scoring import blame_set, ground_truth, render_score, score_dump

__all__ = [
    "IncidentResult",
    "IncidentScenario",
    "availability_objective",
    "blame_set",
    "get_scenario",
    "ground_truth",
    "render_score",
    "run_scenario",
    "scenarios",
    "score_dump",
    "spare_pages",
]
