"""Swap-based far memory — the baseline §3.3 makes obsolete.

The paper: "rack-scale shared memory naturally realizes the existing
memory disaggregation capability.  Thus, expensive memory services,
such as swapping and compression, are no longer needed."  To quantify
that, this module implements the thing being retired: anonymous memory
whose working set exceeds local DRAM and overflows to an SSD swap
device, Infiniswap/zswap style.  The E11 ablation touches an
over-budget working set through this and through plain
GLOBAL-placement FlacOS pages and compares the tail.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from ...rack.machine import NodeContext
from ...telemetry import TELEMETRY as _TEL
from ..fs.block import BlockAllocator, BlockDevice

PAGE_SIZE = 4096


@dataclass
class SwapStats:
    hits: int = 0
    major_faults: int = 0
    swap_outs: int = 0
    swap_ins: int = 0
    compressed_hits: int = 0


class SwapBackedMemory:
    """Anonymous pages with a bounded local-DRAM residency budget.

    Pages beyond the budget are evicted LRU: optionally into a
    compressed in-memory pool first (zswap tier), then to the swap
    device.  Every touch charges realistic costs: local DRAM on hit,
    decompression on a zswap hit, a full device round trip on a major
    fault (plus the eviction write on pressure).
    """

    def __init__(
        self,
        resident_budget_pages: int,
        device: Optional[BlockDevice] = None,
        zswap_pages: int = 0,
        local_touch_ns: float = 0.12 * PAGE_SIZE,
        compress_ns: float = 2_500.0,
        decompress_ns: float = 1_200.0,
    ) -> None:
        if resident_budget_pages < 1:
            raise ValueError("need at least one resident page")
        self.budget = resident_budget_pages
        self.device = device or BlockDevice()
        self.blocks = BlockAllocator(self.device.spec.n_blocks)
        self.zswap_budget = zswap_pages
        self.local_touch_ns = local_touch_ns
        self.compress_ns = compress_ns
        self.decompress_ns = decompress_ns
        #: resident pages: vpn -> bytes (LRU order)
        self._resident: "OrderedDict[int, bytes]" = OrderedDict()
        #: compressed tier: vpn -> compressed bytes (LRU order)
        self._zswap: "OrderedDict[int, bytes]" = OrderedDict()
        #: swapped out: vpn -> block number
        self._swapped: Dict[int, int] = {}
        self.stats = SwapStats()

    def touch(self, ctx: NodeContext, vpn: int, write: bool = False, fill: bytes = b"") -> bytes:
        """Access one page, faulting it resident if necessary."""
        page = self._resident.get(vpn)
        if page is not None:
            self._resident.move_to_end(vpn)
            ctx.advance(self.local_touch_ns)
            self.stats.hits += 1
            if _TEL.enabled:
                _TEL.registry.inc(ctx.node_id, "core.memory", "swap.hit")
        else:
            if _TEL.enabled:
                before = ctx.now()
                page = self._fault_in(ctx, vpn, fill)
                reg = _TEL.registry
                reg.inc(ctx.node_id, "core.memory", "swap.major_fault")
                reg.observe(
                    ctx.node_id, "core.memory", "swap.fault_ns", ctx.now() - before
                )
            else:
                page = self._fault_in(ctx, vpn, fill)
        if write:
            page = (fill or b"w").ljust(PAGE_SIZE, b"\x00")[:PAGE_SIZE]
            self._resident[vpn] = page
        return page

    def _fault_in(self, ctx: NodeContext, vpn: int, fill: bytes) -> bytes:
        self.stats.major_faults += 1
        compressed = self._zswap.pop(vpn, None)
        if compressed is not None:
            ctx.advance(self.decompress_ns)
            page = zlib.decompress(compressed)
            self.stats.compressed_hits += 1
        elif vpn in self._swapped:
            block = self._swapped.pop(vpn)
            page = self.device.read_block(ctx, block)
            self.blocks.free(block)
            self.stats.swap_ins += 1
        else:
            page = fill.ljust(PAGE_SIZE, b"\x00")[:PAGE_SIZE]
            ctx.advance(self.local_touch_ns)  # zero-fill
        self._make_room(ctx)
        self._resident[vpn] = page
        self._resident.move_to_end(vpn)
        return page

    def _make_room(self, ctx: NodeContext) -> None:
        while len(self._resident) >= self.budget:
            victim_vpn, victim = self._resident.popitem(last=False)
            if len(self._zswap) < self.zswap_budget:
                ctx.advance(self.compress_ns)
                self._zswap[victim_vpn] = zlib.compress(victim, level=1)
                continue
            if self._zswap:
                # demote the oldest compressed page to disk to make room
                old_vpn, old_blob = self._zswap.popitem(last=False)
                block = self.blocks.alloc()
                ctx.advance(self.decompress_ns)
                self.device.write_block(ctx, block, zlib.decompress(old_blob))
                self._swapped[old_vpn] = block
                ctx.advance(self.compress_ns)
                self._zswap[victim_vpn] = zlib.compress(victim, level=1)
            else:
                block = self.blocks.alloc()
                self.device.write_block(ctx, block, victim)
                self._swapped[victim_vpn] = block
            self.stats.swap_outs += 1
            if _TEL.enabled:
                _TEL.registry.inc(ctx.node_id, "core.memory", "swap.out")
