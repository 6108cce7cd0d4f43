"""Shared heterogeneous page table (§3.3).

The defining move of the FlacOS memory system: page tables live in
*global* memory, so one address space can be installed on every node in
the rack — rack-wide multithreading without page-table replication.  The
table indexes both local and global frames ("heterogeneous") and unifies
them into a single-level address space.

Entries are u64 words in a shared radix tree keyed by virtual page
number.  The frame address is page-aligned, leaving the low 12 bits for
flags.  A generation word next to the root supports TLB shootdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from ...flacdk.alloc import SharedHeap
from ...flacdk.structures import SharedRadixTree
from ...rack.machine import NodeContext

PAGE_SIZE = 4096
PAGE_SHIFT = 12

# PTE flag bits (low 12 bits of the entry)
PTE_PRESENT = 1 << 0
PTE_WRITE = 1 << 1
PTE_GLOBAL = 1 << 2  # frame lives in interconnect-attached global memory
PTE_DIRTY = 1 << 3
PTE_ACCESSED = 1 << 4
PTE_COW = 1 << 5

_FLAG_MASK = PAGE_SIZE - 1


class PageTableError(Exception):
    pass


class PageFault(Exception):
    """Raised by translate() on a non-present page; the address-space
    fault handler catches it and services the fault."""

    def __init__(self, vaddr: int, write: bool) -> None:
        super().__init__(f"page fault at {vaddr:#x} ({'write' if write else 'read'})")
        self.vaddr = vaddr
        self.write = write


class ProtectionFault(Exception):
    """Write to a read-only or CoW mapping."""

    def __init__(self, vaddr: int, pte: int) -> None:
        super().__init__(f"protection fault at {vaddr:#x} (pte={pte:#x})")
        self.vaddr = vaddr
        self.pte = pte


@dataclass(frozen=True)
class Translation:
    frame_addr: int
    flags: int

    @property
    def writable(self) -> bool:
        return bool(self.flags & PTE_WRITE)


def vpn_of(vaddr: int) -> int:
    return vaddr >> PAGE_SHIFT


def page_offset(vaddr: int) -> int:
    return vaddr & _FLAG_MASK


class SharedPageTable:
    """One address space's page table, resident in global memory."""

    def __init__(self, root_ptr_addr: int, generation_addr: int, heap: SharedHeap) -> None:
        self.tree = SharedRadixTree(root_ptr_addr, heap, key_bits=48, fanout_bits=8)
        self.generation_addr = generation_addr

    def format(self, ctx: NodeContext) -> "SharedPageTable":
        self.tree.format(ctx)
        ctx.atomic_store(self.generation_addr, 0)
        return self

    # -- mapping -----------------------------------------------------------------

    def map(self, ctx: NodeContext, vaddr: int, frame_addr: int, flags: int) -> None:
        """Install a translation for the page containing ``vaddr``."""
        if frame_addr & _FLAG_MASK:
            raise PageTableError(f"frame {frame_addr:#x} is not page aligned")
        if flags & ~_FLAG_MASK:
            raise PageTableError(f"flags {flags:#x} overflow the flag bits")
        self.tree.insert(ctx, vpn_of(vaddr), frame_addr | flags | PTE_PRESENT)

    def unmap(self, ctx: NodeContext, vaddr: int) -> Optional[Translation]:
        """Remove a translation; returns it (bump the generation and run a
        TLB shootdown afterwards — see TlbShootdown)."""
        pte = self.tree.remove(ctx, vpn_of(vaddr))
        return _decode(pte) if pte else None

    def translate(self, ctx: NodeContext, vaddr: int, write: bool = False) -> Translation:
        """Hardware-walk equivalent: raises PageFault / ProtectionFault."""
        pte = self.tree.lookup(ctx, vpn_of(vaddr))
        if pte is None or not pte & PTE_PRESENT:
            raise PageFault(vaddr, write)
        if write and not pte & PTE_WRITE:
            raise ProtectionFault(vaddr, pte)
        return _decode(pte)

    def try_translate(self, ctx: NodeContext, vaddr: int) -> Optional[Translation]:
        pte = self.tree.lookup(ctx, vpn_of(vaddr))
        if pte is None or not pte & PTE_PRESENT:
            return None
        return _decode(pte)

    def entries(self, ctx: NodeContext) -> Iterator[Tuple[int, Translation]]:
        """All (vpn, translation) pairs — diagnostics and fault-box capture."""
        for vpn, pte in self.tree.items(ctx):
            if pte & PTE_PRESENT:
                yield vpn, _decode(pte)

    # -- shootdown generation ---------------------------------------------------------


def _decode(pte: int) -> Translation:
    return Translation(frame_addr=pte & ~_FLAG_MASK, flags=pte & _FLAG_MASK)
