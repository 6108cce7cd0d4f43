"""FlacDK reliability mechanisms (§3.2).

The fault-handling pipeline: monitoring, failure prediction, fault
detection (integrity + liveness), in-place UE repair from redundancy
sources, and background scrubbing with predictor-driven proactive
evacuation.  Checkpoints are the fault boxes' (:mod:`repro.core.fault`).
"""

from .detection import ChecksumDetector, CorruptionReport, HeartbeatDetector
from .monitor import HealthMonitor
from .prediction import FailurePredictor, PageRisk
from .repair import MirrorSource, RepairCoordinator, RepairRecord, RepairSource, RepairStats
from .scrub import MemoryScrubber, ScrubStats

__all__ = [
    "ChecksumDetector",
    "CorruptionReport",
    "FailurePredictor",
    "HealthMonitor",
    "HeartbeatDetector",
    "MemoryScrubber",
    "MirrorSource",
    "PageRisk",
    "RepairCoordinator",
    "RepairRecord",
    "RepairSource",
    "RepairStats",
    "ScrubStats",
]
