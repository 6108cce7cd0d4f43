"""Workload generators (keys, values, request mixes) and the open-loop
traffic engine for the benchmarks."""

from .ycsb import WORKLOADS, YcsbConfig, YcsbWorkload
from .arrivals import ArrivalProcess, DiurnalProcess, PoissonProcess, make_process
from .generators import (
    KeyGenerator,
    Request,
    RequestStream,
    ValueGenerator,
)
from .traffic import (
    AdmissionError,
    DataPlaneBackend,
    TenantSpec,
    TrafficEngine,
    TrafficReport,
)
from .resilience import (
    DISABLED,
    BreakerPolicy,
    ChaosLoadReport,
    ChaosUnderLoad,
    CircuitBreaker,
    HedgePolicy,
    ResilienceSpec,
    ResilientTrafficEngine,
    RetryPolicy,
    default_spec,
)

__all__ = [
    "AdmissionError",
    "BreakerPolicy",
    "ChaosLoadReport",
    "ChaosUnderLoad",
    "CircuitBreaker",
    "DISABLED",
    "HedgePolicy",
    "ResilienceSpec",
    "ResilientTrafficEngine",
    "RetryPolicy",
    "default_spec",
    "ArrivalProcess",
    "DataPlaneBackend",
    "DiurnalProcess",
    "KeyGenerator",
    "PoissonProcess",
    "Request",
    "RequestStream",
    "TenantSpec",
    "TrafficEngine",
    "TrafficReport",
    "ValueGenerator",
    "make_process",
    "WORKLOADS",
    "YcsbConfig",
    "YcsbWorkload",
]
