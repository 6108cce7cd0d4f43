"""Static carving of a shared-memory range into regions.

Boot-time layout decisions (where the heap, logs, rings, and tables
live) are made once by the node that formats the structures and shared
via well-known addresses; :class:`Arena` is that cursor.  It is not an
allocator — freeing happens at the object layer (:class:`SharedHeap`).
"""

from __future__ import annotations


class ArenaExhausted(Exception):
    pass


class Arena:
    """Hands out aligned, non-overlapping sub-ranges of ``[base, base+size)``."""

    def __init__(self, base: int, size: int) -> None:
        if size <= 0:
            raise ValueError("arena size must be positive")
        self.base = base
        self.size = size
        self._cursor = base

    def take(self, size: int, align: int = 64) -> int:
        """Reserve ``size`` bytes aligned to ``align``; returns the address."""
        if size <= 0:
            raise ValueError("region size must be positive")
        if align & (align - 1):
            raise ValueError("alignment must be a power of two")
        start = (self._cursor + align - 1) & ~(align - 1)
        if start + size > self.base + self.size:
            raise ArenaExhausted(
                f"arena at {self.base:#x}: wanted {size} B, "
                f"{self.base + self.size - start} B left"
            )
        self._cursor = start + size
        return start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Arena({self.base:#x}+{self.size:#x}, used={self._cursor - self.base:#x})"
