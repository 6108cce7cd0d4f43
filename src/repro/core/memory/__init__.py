"""FlacOS memory system (§3.3).

Shared heterogeneous page tables in global memory, per-node TLBs with a
shared-memory shootdown protocol, replicated node-local VMAs, demand
paging with placement policies, CoW, and rack-wide page deduplication.
"""

from .address_space import AddressSpace, SegmentationFault, USER_LIMIT
from .dedup import DedupStats, PageDeduper
from .page_table import (
    PAGE_SIZE,
    PTE_COW,
    PTE_DIRTY,
    PTE_GLOBAL,
    PTE_PRESENT,
    PTE_WRITE,
    PageFault,
    PageTableError,
    ProtectionFault,
    SharedPageTable,
    Translation,
    page_offset,
    vpn_of,
)
from .swap import SwapBackedMemory, SwapStats
from .system import MemorySystem
from .tlb import CachedWalker, Tlb, TlbShootdown, TlbStats
from .vma import VMA, Placement, Protection, ReverseMap, VmaSet

__all__ = [
    "AddressSpace",
    "CachedWalker",
    "DedupStats",
    "MemorySystem",
    "PAGE_SIZE",
    "PTE_COW",
    "PTE_DIRTY",
    "PTE_GLOBAL",
    "PTE_PRESENT",
    "PTE_WRITE",
    "PageDeduper",
    "PageFault",
    "PageTableError",
    "Placement",
    "Protection",
    "ProtectionFault",
    "ReverseMap",
    "SegmentationFault",
    "SharedPageTable",
    "SwapBackedMemory",
    "SwapStats",
    "Tlb",
    "TlbShootdown",
    "TlbStats",
    "Translation",
    "USER_LIMIT",
    "VMA",
    "VmaSet",
    "page_offset",
    "vpn_of",
]
