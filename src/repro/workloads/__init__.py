"""Workload generators (keys, values, request mixes) and the open-loop
traffic engine for the benchmarks."""

from .ycsb import WORKLOADS, YcsbConfig, YcsbWorkload
from .arrivals import ArrivalProcess, DiurnalProcess, PoissonProcess, make_process
from .generators import KeyGenerator, ValueGenerator
from .traffic import (
    AdmissionError,
    DataPlaneBackend,
    TenantSpec,
    TrafficEngine,
    TrafficReport,
)
from .resilience import (
    ChaosLoadReport,
    ChaosUnderLoad,
    CircuitBreaker,
    ResilienceSpec,
    ResilientTrafficEngine,
    default_spec,
)

__all__ = [
    "AdmissionError",
    "ChaosLoadReport",
    "ChaosUnderLoad",
    "CircuitBreaker",
    "ResilienceSpec",
    "ResilientTrafficEngine",
    "default_spec",
    "ArrivalProcess",
    "DataPlaneBackend",
    "DiurnalProcess",
    "KeyGenerator",
    "PoissonProcess",
    "TenantSpec",
    "TrafficEngine",
    "TrafficReport",
    "ValueGenerator",
    "make_process",
    "WORKLOADS",
    "YcsbConfig",
    "YcsbWorkload",
]
