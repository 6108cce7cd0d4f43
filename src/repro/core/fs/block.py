"""Simulated block storage device (§3.4's "traditional" layer).

FlacFS keeps the block layer node-local for compatibility with
non-memory-semantic devices.  The device here is an NVMe-ish SSD with
per-op latency plus bandwidth-proportional transfer time, charged to the
issuing node's clock.  Contents live in a host-side buffer — this is a
*device*, not rack memory, so cache-coherence rules don't apply to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ...rack.machine import NodeContext


@dataclass
class BlockDeviceSpec:
    block_size: int = 4096
    n_blocks: int = 1 << 16
    read_latency_ns: float = 20_000.0
    write_latency_ns: float = 25_000.0
    #: Sustained bandwidth in bytes per nanosecond (~3 GB/s).
    bandwidth_bytes_per_ns: float = 3.0


class BlockDeviceError(Exception):
    pass


class BlockDevice:
    """One node-local SSD."""

    def __init__(self) -> None:
        self.spec = BlockDeviceSpec()
        self._blocks: Dict[int, bytes] = {}
        self.reads = 0
        self.writes = 0

    def read_block(self, ctx: NodeContext, block_no: int) -> bytes:
        self._check(block_no)
        ctx.advance(self.spec.read_latency_ns + self.spec.block_size / self.spec.bandwidth_bytes_per_ns)
        self.reads += 1
        return self._blocks.get(block_no, bytes(self.spec.block_size))

    def write_block(self, ctx: NodeContext, block_no: int, data: bytes) -> None:
        self._check(block_no)
        if len(data) != self.spec.block_size:
            raise BlockDeviceError(
                f"write of {len(data)} B != block size {self.spec.block_size}"
            )
        ctx.advance(self.spec.write_latency_ns + self.spec.block_size / self.spec.bandwidth_bytes_per_ns)
        self.writes += 1
        self._blocks[block_no] = bytes(data)

    def _check(self, block_no: int) -> None:
        if not 0 <= block_no < self.spec.n_blocks:
            raise BlockDeviceError(f"block {block_no} outside device of {self.spec.n_blocks}")


class BlockAllocator:
    """Trivial block allocator for file extents (node-local metadata)."""

    def __init__(self, n_blocks: int) -> None:
        self._next = 0
        self._free: list = []
        self.n_blocks = n_blocks

    def alloc(self) -> int:
        if self._free:
            return self._free.pop()
        if self._next >= self.n_blocks:
            raise BlockDeviceError("device full")
        block = self._next
        self._next += 1
        return block

    def free(self, block_no: int) -> None:
        self._free.append(block_no)
