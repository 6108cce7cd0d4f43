"""Fault detection (§3.2): integrity checksums and liveness heartbeats.

Two detectors cover the paper's fault taxonomy:

* :class:`ChecksumDetector` catches *silent* data corruption (bit flips
  that ECC missed) by keeping CRC32 sums of registered shared regions.
* :class:`HeartbeatDetector` catches node and link death: every node
  periodically bumps its heartbeat word in global memory; a watcher
  declares nodes whose word has not advanced within the timeout dead.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ...rack.machine import NodeContext
from ...rack.memory import UncorrectableMemoryError
from ...rack.node import NodeCrashedError


@dataclass
class CorruptionReport:
    region_base: int
    size: int
    expected_crc: int
    observed_crc: Optional[int]  # None when the read itself faulted (UE)


class ChecksumDetector:
    """CRC32-based integrity checking of shared-memory regions."""

    def __init__(self) -> None:
        self._sums: Dict[int, Tuple[int, int]] = {}  # base -> (size, crc)

    def protect(self, ctx: NodeContext, base: int, size: int) -> int:
        """Record the current checksum of ``[base, base+size)``."""
        data = ctx.load(base, size, bypass_cache=True)
        crc = zlib.crc32(data)
        self._sums[base] = (size, crc)
        return crc

    def verify(self, ctx: NodeContext, base: int) -> Optional[CorruptionReport]:
        """Re-checksum a protected region; None when intact."""
        try:
            size, expected = self._sums[base]
        except KeyError:
            raise KeyError(f"region {base:#x} was never protected") from None
        try:
            data = ctx.load(base, size, bypass_cache=True)
        except UncorrectableMemoryError:
            return CorruptionReport(base, size, expected, observed_crc=None)
        observed = zlib.crc32(data)
        if observed == expected:
            return None
        return CorruptionReport(base, size, expected, observed)

    def sweep(self, ctx: NodeContext) -> List[CorruptionReport]:
        """Verify every protected region; returns all corruption found."""
        reports = []
        for base in list(self._sums):
            report = self.verify(ctx, base)
            if report is not None:
                reports.append(report)
        return reports


class HeartbeatDetector:
    """Liveness detection over per-node heartbeat words in global memory.

    Each node's word holds its last-beat simulated timestamp (f64 bits);
    any node can scan all words and compare against its own clock.
    """

    def __init__(self, base: int, n_nodes: int, timeout_ns: float = 1e6) -> None:
        self.base = base
        self.n_nodes = n_nodes
        self.timeout_ns = timeout_ns

    @staticmethod
    def region_size(n_nodes: int) -> int:
        return 8 * n_nodes

    def format(self, ctx: NodeContext) -> "HeartbeatDetector":
        for node in range(self.n_nodes):
            ctx.atomic_store(self._word(node), 0)
        return self

    def beat(self, ctx: NodeContext) -> None:
        """Publish 'I am alive at my current time'."""
        ts_bits = struct.unpack("<Q", struct.pack("<d", ctx.now()))[0]
        ctx.atomic_store(self._word(ctx.node_id), ts_bits)

    def last_beat(self, ctx: NodeContext, node_id: int) -> float:
        bits = ctx.atomic_load(self._word(node_id))
        return struct.unpack("<d", struct.pack("<Q", bits))[0]

    def suspected_dead(self, ctx: NodeContext) -> List[int]:
        """Nodes whose heartbeat lags the observer by more than the timeout."""
        now = ctx.now()
        dead = []
        for node in range(self.n_nodes):
            if node == ctx.node_id:
                continue
            if now - self.last_beat(ctx, node) > self.timeout_ns:
                dead.append(node)
        return dead

    def confirm_dead(self, ctx: NodeContext, node_id: int) -> bool:
        """Actively probe: a crashed node cannot answer anything, but its
        machine state is authoritative in the simulator."""
        try:
            ctx.machine.nodes[node_id].check_alive()
            return False
        except NodeCrashedError:
            return True

    def _word(self, node_id: int) -> int:
        if not 0 <= node_id < self.n_nodes:
            raise ValueError(f"node {node_id} outside detector of {self.n_nodes}")
        return self.base + node_id * 8
