"""Configuration objects for the simulated rack.

The latency model is the calibration surface of the reproduction: the
paper's evaluation ran on a two-node Kunpeng 920 rack joined by HCCS, and
we reproduce the *shape* of its results by charging simulated nanoseconds
for every memory, cache, and interconnect operation.  Defaults below are
taken from published CXL/HCCS latency ranges (local DRAM ~90 ns, one-hop
interconnected memory 250-400 ns, switched paths higher).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Integral, Real


def refuse(owner: object, name: str, want: str) -> None:
    """A typed refusal naming the class, the field and the value."""
    value = getattr(owner, name)
    raise ValueError(f"{type(owner).__name__}.{name} must be {want}, got {value!r}")


def finite(value: object) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


def whole(value: object) -> bool:
    """An integer >= 0 (``True`` is not a count)."""
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= 0


@dataclass
class LatencyModel:
    """Nanosecond costs charged to a node's simulated clock.

    Bulk transfers are pipelined: the first cache line of a contiguous
    access pays full device latency, subsequent lines pay the bandwidth
    cost ``line_size / *_bw_bytes_per_ns``.
    """

    #: Hit in the node's private cache.
    cache_hit_ns: float = 2.0
    #: Extra lookup cost added to every miss before the device is charged.
    cache_miss_overhead_ns: float = 2.0
    #: Access to the node's local DRAM (cache miss service time).
    local_dram_ns: float = 90.0
    #: Base access latency of interconnect-attached global memory.
    global_base_ns: float = 250.0
    #: Added per interconnect hop between the node and global memory.
    hop_ns: float = 70.0
    #: Added per switch traversed on that path.
    switch_ns: float = 40.0
    #: Round trip of a cache-bypassing atomic on global memory.
    global_atomic_ns: float = 450.0
    #: Atomic on the node's own local memory.
    local_atomic_ns: float = 20.0
    #: Writing back one dirty line to its backing device (on top of the
    #: device latency for the first line of a burst).
    writeback_line_ns: float = 2.0
    #: Dropping / invalidating one cache line.
    invalidate_line_ns: float = 1.5
    #: Memory barrier.
    fence_ns: float = 8.0
    #: Streaming bandwidth of local DRAM in bytes per nanosecond (~25 GB/s).
    local_bw_bytes_per_ns: float = 25.0
    #: Streaming bandwidth of global memory in bytes per nanosecond (~24 GB/s,
    #: HCCS-class; well above the 25 GbE wire of the network baseline).
    global_bw_bytes_per_ns: float = 24.0
    #: Extra access latency when the global pool is persistent memory
    #: (Optane-class media is slower than DRAM behind the same fabric).
    pmem_extra_ns: float = 120.0
    #: Streaming bandwidth of persistent global memory (~8 GB/s).
    pmem_bw_bytes_per_ns: float = 8.0

    def __post_init__(self) -> None:
        # every charge adds these as they are: a negative or NaN one would
        # run a clock backwards or poison it, a bandwidth of 0 divide by it
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_bw_bytes_per_ns"):
                if not (finite(value) and value > 0):
                    refuse(self, f.name, "a finite number > 0")
            elif not (finite(value) and value >= 0):
                refuse(self, f.name, "a finite number >= 0")

    def device_ns(self, *, is_global: bool, hops: int, switches: int) -> float:
        """Latency of one uncached access to a backing device."""
        if is_global:
            return self.global_base_ns + hops * self.hop_ns + switches * self.switch_ns
        return self.local_dram_ns

    def pipelined_line_ns(self, line_size: int, *, is_global: bool) -> float:
        """Cost of each additional line in a contiguous burst."""
        bw = self.global_bw_bytes_per_ns if is_global else self.local_bw_bytes_per_ns
        return line_size / bw


@dataclass
class FaultModel:
    """Per-access fault probabilities for the injector.

    The paper argues global memory is *less* reliable because smaller
    process nodes raise raw bit-error rates and every hop/switch widens
    the fault surface.  We model that with a base per-access probability
    multiplied per hop traversed.
    """

    #: Probability of a correctable (ECC-corrected) error per global access.
    global_ce_rate: float = 0.0
    #: Probability of an uncorrectable error per global access.
    global_ue_rate: float = 0.0
    #: Same for local memory accesses (orders of magnitude lower in practice).
    local_ce_rate: float = 0.0
    local_ue_rate: float = 0.0
    #: Multiplier applied once per hop+switch on the access path.
    per_hop_multiplier: float = 1.5
    #: Probability an injected error corrupts a full line rather than a bit.
    line_corruption_ratio: float = 0.1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Refuse a rate or ratio outside [0, 1] and a per-hop multiplier that
        is not a finite number >= 0 — at construction, and again from
        :meth:`FaultInjector.model_changed` after an in-place edit."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "per_hop_multiplier":
                if not (finite(value) and value >= 0):
                    refuse(self, f.name, "a finite number >= 0")
            elif not (finite(value) and 0 <= value <= 1):
                refuse(self, f.name, "a probability in [0, 1]")


@dataclass
class RackConfig:
    """Static description of the rack used to build a :class:`RackMachine`."""

    n_nodes: int = 2
    cores_per_node: int = 320
    #: Bytes of private DRAM per node.
    local_mem_size: int = 1 << 24
    #: Bytes of interconnect-attached shared global memory.
    global_mem_size: int = 1 << 26
    cache_line_size: int = 64
    #: Lines in each node's private cache.
    cache_lines: int = 4096
    #: Name of a builder in :mod:`repro.rack.topology`.
    topology: str = "dual_direct"
    #: Media of the shared global pool: "dram" (volatile) or "pmem"
    #: (persistent across :meth:`RackMachine.power_cycle`, slower) — the
    #: paper's simulated platform shares persistent memory between VMs.
    global_kind: str = "dram"
    latency: LatencyModel = field(default_factory=LatencyModel)
    faults: FaultModel = field(default_factory=FaultModel)
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_nodes", "cores_per_node", "local_mem_size", "global_mem_size",
                     "cache_line_size", "cache_lines"):
            value = getattr(self, name)
            if not (whole(value) and value >= 1):
                refuse(self, name, "an integer >= 1")
        if self.cache_line_size & (self.cache_line_size - 1) or self.cache_line_size < 8:
            # at least 8: an aligned 8-byte atomic lies in exactly one line
            raise ValueError("cache_line_size must be a power of two, at least 8")
        if self.local_mem_size % self.cache_line_size:
            raise ValueError("local_mem_size must be line aligned")
        if self.global_mem_size % self.cache_line_size:
            raise ValueError("global_mem_size must be line aligned")
        if self.global_kind not in ("dram", "pmem"):
            raise ValueError(f"global_kind must be 'dram' or 'pmem', not {self.global_kind!r}")


#: Base physical address of the shared global-memory region.  Node-local
#: regions are laid out beneath it, one stride per node.
GLOBAL_BASE = 1 << 40
#: Address stride reserved for each node's local region.
LOCAL_STRIDE = 1 << 36
