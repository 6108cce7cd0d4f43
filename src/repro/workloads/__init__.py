"""Workload generators (keys, values, request mixes) and the open-loop
traffic engine for the benchmarks."""

from .ycsb import WORKLOADS, YcsbConfig, YcsbWorkload, op_mix
from .arrivals import ArrivalProcess, DiurnalProcess, PoissonProcess, make_process
from .generators import (
    KeyGenerator,
    Request,
    RequestStream,
    ValueGenerator,
    popularity_histogram,
)
from .traffic import (
    AdmissionError,
    DataPlaneBackend,
    RedisBackend,
    ServerlessBackend,
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
    "RedisBackend",
    "Request",
    "RequestStream",
    "ServerlessBackend",
    "TenantSpec",
    "TrafficEngine",
    "TrafficReport",
    "ValueGenerator",
    "make_process",
    "popularity_histogram",
    "WORKLOADS",
    "YcsbConfig",
    "YcsbWorkload",
    "op_mix",
]
