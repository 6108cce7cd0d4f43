"""FlacDK reliability mechanisms (§3.2).

The fault-handling pipeline: monitoring, failure prediction, fault
detection (liveness state), in-place UE repair from redundancy
sources, and background scrubbing with predictor-driven proactive
evacuation.  Checkpoints are the fault boxes' (:mod:`repro.core.fault`).
"""

from .detection import HeartbeatDetector
from .monitor import HealthMonitor
from .prediction import FailurePredictor, PageRisk
from .repair import RepairCoordinator, RepairRecord, RepairSource, RepairStats
from .scrub import MemoryScrubber, ScrubStats

__all__ = [
    "FailurePredictor",
    "HealthMonitor",
    "HeartbeatDetector",
    "MemoryScrubber",
    "PageRisk",
    "RepairCoordinator",
    "RepairRecord",
    "RepairSource",
    "RepairStats",
    "ScrubStats",
]
