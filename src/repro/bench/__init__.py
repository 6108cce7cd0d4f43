"""Benchmark harness shared by everything under ``benchmarks/``."""

from .harness import Rig, Table, build_rig, check_ratio

__all__ = ["Rig", "Table", "build_rig", "check_ratio"]
