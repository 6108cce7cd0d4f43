"""Content-based page deduplication over global frames (§3.3).

The rack-scale variant of KSM: because frames in global memory are
reachable from every node, identical pages mapped by *different nodes'*
processes can be merged into one frame — impossible when each node has
private memory.  Duplicates are remapped read-only with the CoW bit so a
later write breaks the sharing safely.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ...rack.machine import NodeContext
from ...telemetry import TELEMETRY as _TEL
from .page_table import PAGE_SIZE, PTE_COW, PTE_GLOBAL, PTE_PRESENT
from .vma import ReverseMap


@dataclass
class DedupStats:
    scanned_frames: int = 0
    merged_frames: int = 0
    bytes_saved: int = 0
    cow_remaps: int = 0
    #: Address spaces whose PTEs were rewritten since the last drain;
    #: the memory system shoots their TLB entries down after each scan.
    touched_asids: set = field(default_factory=set)


@dataclass
class PageDeduper:
    """Merges identical global frames across address spaces."""

    rmap: ReverseMap
    #: asid -> that address space's page table (to rewrite PTEs).
    page_tables: Dict[int, "SharedPageTable"]  # noqa: F821 - forward ref
    free_frame: Callable[[NodeContext, int], None]
    stats: DedupStats = field(default_factory=DedupStats)

    def scan(self, ctx: NodeContext, frames: List[int]) -> int:
        """Deduplicate the given global frames; returns frames merged.

        Frames must be flushed by their writers first (the page cache and
        fault handlers in this codebase write frames with bypassing
        stores, so backing memory is authoritative).
        """
        by_content: Dict[bytes, int] = {}
        merged = 0
        for frame in frames:
            refs = self.rmap.refs(frame)
            if not refs:
                continue
            self.stats.scanned_frames += 1
            digest = hashlib.blake2b(
                ctx.load(frame, PAGE_SIZE, bypass_cache=True), digest_size=16
            ).digest()
            canonical = by_content.get(digest)
            if canonical is None:
                by_content[digest] = frame
                continue
            if canonical == frame:
                continue
            self._merge(ctx, duplicate=frame, canonical=canonical)
            merged += 1
        self.stats.merged_frames += merged
        self.stats.bytes_saved += merged * PAGE_SIZE
        if _TEL.enabled:
            reg = _TEL.registry
            reg.inc(ctx.node_id, "core.memory", "dedup.scans")
            reg.inc(ctx.node_id, "core.memory", "dedup.merged", merged)
            reg.inc(ctx.node_id, "core.memory", "dedup.bytes_saved", merged * PAGE_SIZE)
        return merged

    def _merge(self, ctx: NodeContext, duplicate: int, canonical: int) -> None:
        """Point every PTE of ``duplicate`` at ``canonical``, and downgrade
        all mappings of both frames to read-only CoW."""
        flags = (PTE_PRESENT | PTE_GLOBAL | PTE_COW) & (PAGE_SIZE - 1)
        for asid, vpn in self.rmap.refs(canonical):
            self.page_tables[asid].map(ctx, vpn * PAGE_SIZE, canonical, flags)
            self.stats.touched_asids.add(asid)
        for asid, vpn in self.rmap.refs(duplicate):
            self.page_tables[asid].map(ctx, vpn * PAGE_SIZE, canonical, flags)
            self.rmap.add(canonical, asid, vpn)
            self.rmap.remove(duplicate, asid, vpn)
            self.stats.cow_remaps += 1
            self.stats.touched_asids.add(asid)
        self.free_frame(ctx, duplicate)
