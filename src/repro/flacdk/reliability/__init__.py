"""FlacDK reliability mechanisms (§3.2).

The fault-handling pipeline: monitoring, failure prediction, in-place
UE repair from redundancy sources, and background scrubbing with
predictor-driven proactive evacuation.  Crash detection is the
machine's crash hook (``RackMachine.on_crash``); checkpoints are the
fault boxes' (:mod:`repro.core.fault`).
"""

from .monitor import HealthMonitor
from .prediction import FailurePredictor, PageRisk
from .repair import RepairCoordinator, RepairRecord, RepairSource, RepairStats
from .scrub import MemoryScrubber, ScrubStats

__all__ = [
    "FailurePredictor",
    "HealthMonitor",
    "MemoryScrubber",
    "PageRisk",
    "RepairCoordinator",
    "RepairRecord",
    "RepairSource",
    "RepairStats",
    "ScrubStats",
]
