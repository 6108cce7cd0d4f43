"""Deterministic chaos campaigns for the rack (ROADMAP: "handles as
many scenarios as you can imagine").

A *campaign* is a declarative, seeded schedule of fault events — UE
storms, CE storms, correlated line failures, link flaps, node crashes —
triggered by simulated time or by access count, plus the invariants
that must hold when the dust settles.  The runner applies the schedule
against a live rack/kernel while a workload runs, lets the self-healing
pipeline fight back, and produces a byte-identical event journal for a
given (seed, schedule) pair — every chaos scenario becomes a reusable,
reproducible artifact instead of a hand-rolled test.
"""

from .invariants import (
    boxes_recovered,
    committed_files_intact,
    region_bytes_intact,
    survivor_liveness,
)
from .schedule import ChaosCampaign, ChaosEvent, event
from .runner import CampaignReport, CampaignRunner, render_fault_log

__all__ = [
    "CampaignReport",
    "CampaignRunner",
    "ChaosCampaign",
    "ChaosEvent",
    "boxes_recovered",
    "committed_files_intact",
    "event",
    "region_bytes_intact",
    "render_fault_log",
    "survivor_liveness",
]
