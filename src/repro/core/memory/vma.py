"""Virtual memory areas and the reverse map — node-local structures (§3.3).

The paper keeps VMAs and rmap *out* of global memory: they are touched
with many small random accesses, which global latency punishes, and they
synchronise cheaply with replication.  Here VMA sets are replicated per
node through the shared op log (mutations logged, reads local), and the
rmap is a per-rack Python-side index maintained by the memory system.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple


class Placement(Enum):
    """Where a VMA's frames come from."""

    LOCAL = "local"  # faulting node's private DRAM (first-touch NUMA style)
    GLOBAL = "global"  # rack-shared global memory


class Protection:
    READ = 1
    WRITE = 2


@dataclass(frozen=True)
class VMA:
    """One mapped range of an address space."""

    start: int
    end: int
    prot: int
    placement: Placement
    #: (file_id, file_offset) for file-backed mappings, None for anonymous.
    backing: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.start % 4096 or self.end % 4096:
            raise ValueError("VMA bounds must be page aligned")
        if self.end <= self.start:
            raise ValueError("empty VMA")

    def contains(self, vaddr: int) -> bool:
        return self.start <= vaddr < self.end


class VmaSet:
    """A node's local view of one address space's VMAs."""

    def __init__(self) -> None:
        self._vmas: List[VMA] = []

    def insert(self, vma: VMA) -> None:
        for existing in self._vmas:
            if vma.start < existing.end and existing.start < vma.end:
                raise ValueError(
                    f"VMA [{vma.start:#x},{vma.end:#x}) overlaps "
                    f"[{existing.start:#x},{existing.end:#x})"
                )
        self._vmas.append(vma)
        self._vmas.sort(key=lambda v: v.start)

    def remove(self, start: int, end: int) -> VMA:
        for i, vma in enumerate(self._vmas):
            if vma.start == start and vma.end == end:
                return self._vmas.pop(i)
        raise KeyError(f"no VMA [{start:#x},{end:#x})")

    def find(self, vaddr: int) -> Optional[VMA]:
        for vma in self._vmas:
            if vma.contains(vaddr):
                return vma
        return None

    def gap_after(self, hint: int, length: int, limit: int) -> int:
        """First page-aligned free range of ``length`` at or after ``hint``."""
        cursor = (hint + 4095) & ~4095
        for vma in self._vmas:
            if vma.end <= cursor:
                continue
            if vma.start >= cursor + length:
                break
            cursor = vma.end
        if cursor + length > limit:
            raise MemoryError("address space exhausted")
        return cursor

    def __iter__(self):
        return iter(self._vmas)

    def __len__(self) -> int:
        return len(self._vmas)


class ReverseMap:
    """frame address -> set of (asid, vpn) mappings.

    Lets dedup and fault handling find every PTE referencing a frame,
    and doubles as the frame reference count (CoW sharing).
    """

    def __init__(self) -> None:
        self._map: Dict[int, Set[Tuple[int, int]]] = {}

    def add(self, frame_addr: int, asid: int, vpn: int) -> None:
        self._map.setdefault(frame_addr, set()).add((asid, vpn))

    def remove(self, frame_addr: int, asid: int, vpn: int) -> int:
        """Drop one mapping; returns the remaining reference count."""
        refs = self._map.get(frame_addr)
        if refs is None or (asid, vpn) not in refs:
            raise KeyError(f"frame {frame_addr:#x} has no mapping ({asid}, {vpn:#x})")
        refs.discard((asid, vpn))
        if not refs:
            del self._map[frame_addr]
            return 0
        return len(refs)

    def refs(self, frame_addr: int) -> Set[Tuple[int, int]]:
        return set(self._map.get(frame_addr, ()))

    def refcount(self, frame_addr: int) -> int:
        return len(self._map.get(frame_addr, ()))

    def frames(self) -> List[int]:
        return list(self._map)
