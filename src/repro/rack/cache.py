"""Per-node private caches with **no** hardware coherence.

This is the heart of the substrate's fidelity to the paper: a store by
node A lands in A's cache and does not reach backing memory until A
flushes the line; a load by node B returns whatever B's cache holds, even
if that is stale, until B invalidates.  All FlacDK synchronisation
protocols are therefore forced to issue explicit cache maintenance — and
the test suite observes real staleness when they do not.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, List, Optional, Tuple


@dataclass
class CacheStats:
    """Counters exposed for benchmarks and tests."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    invalidations: int = 0
    evictions: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Line:
    """One resident line: ``data`` (a bytearray) and ``dirty``; built by
    :meth:`NodeCache._insert` (no ``__init__``: a fill costs no frame)."""

    __slots__ = ("data", "dirty")


_DATA = attrgetter("data")


class NodeCache:
    """A write-back, write-allocate cache with LRU replacement.

    ``read_backing`` / ``write_backing`` are callbacks into the machine so
    the cache itself stays ignorant of the address map; they take rack
    physical addresses aligned to the line size.

    Maintenance is run-granular (DESIGN.md §3): a run of consecutive
    non-resident lines is one ``read_backing`` call, a run of consecutive
    dirty lines one ``write_backing`` call; lines are still inserted one at
    a time, in order.  ``read_backing`` may answer a multi-line read with
    ``None`` to have that run fetched line by line.
    """

    def __init__(
        self,
        capacity_lines: int,
        line_size: int,
        read_backing: Callable[[int, int], Optional[bytes]],
        write_backing: Callable[[int, bytes], None],
    ) -> None:
        if capacity_lines <= 0:
            raise ValueError("cache needs at least one line")
        if line_size & (line_size - 1):
            raise ValueError("line size must be a power of two")
        self.capacity_lines = capacity_lines
        self.line_size = line_size
        self._read_backing = read_backing
        self._write_backing = write_backing
        self._lines: "OrderedDict[int, _Line]" = OrderedDict()
        self.stats = CacheStats()

    # -- address helpers ---------------------------------------------------

    def line_base(self, addr: int) -> int:
        return addr & ~(self.line_size - 1)

    # -- core operations ---------------------------------------------------

    def load(self, addr: int, size: int) -> Tuple[bytes, int, int]:
        """Read through the cache.  Returns ``(data, hits, misses)``.

        A resident line is a hit (and becomes most recently used); a run of
        absent lines is one backing read, or — when the reader answers
        ``None`` — one read per line, installed in address order."""
        if size <= 0:
            return b"", 0, 0
        lines, line_size = self._lines, self.line_size
        read, insert = self._read_backing, self._insert
        base = addr & ~(line_size - 1)
        end = addr + size
        line = lines.get(base)
        if line is not None and end <= base + line_size:  # a hit on one line: the common case
            lines.move_to_end(base)
            self.stats.hits += 1
            return bytes(line.data[addr - base : end - base]), 1, 0
        out = bytearray()
        hits = misses = 0
        while base < end:
            line = lines.get(base)
            if line is not None:
                lines.move_to_end(base)
                hits += 1
                out += line.data
                base += line_size
                continue
            stop = base + line_size
            while stop < end and stop not in lines:
                stop += line_size
            misses += (stop - base) // line_size
            buf = read(base, stop - base) if stop - base > line_size else None
            if buf is None:
                for base in range(base, stop, line_size):
                    buf = read(base, line_size)
                    insert(base, bytearray(buf), False)
                    out += buf
            else:
                for pos in range(0, stop - base, line_size):
                    insert(base + pos, bytearray(buf[pos : pos + line_size]), False)
                out += buf
            base = stop
        self.stats.hits += hits
        self.stats.misses += misses
        lo = addr & (line_size - 1)
        return bytes(out[lo : lo + size]), hits, misses

    def store(self, addr: int, data: bytes) -> Tuple[int, int, int]:
        """Write into the cache (write-allocate).

        Returns ``(hits, misses, allocs)``: *misses* fetched the line from
        backing memory (partial-line write to a non-resident line);
        *allocs* installed a full line without fetching — the common case
        for bulk writes, and the reason streaming writes to global memory
        are not charged a read round trip.
        """
        size = len(data)
        if size <= 0:
            return 0, 0, 0
        lines, line_size = self._lines, self.line_size
        end = addr + size
        base = addr & ~(line_size - 1)
        line = lines.get(base)
        if line is not None and end <= base + line_size:  # a hit on one line: the common case
            lines.move_to_end(base)
            line.data[addr - base : end - base] = data
            line.dirty = True
            self.stats.hits += 1
            return 1, 0, 0
        hits = misses = allocs = 0
        src = memoryview(data)
        pos = 0
        for base in range(base, end, line_size):
            lo = addr - base if base < addr else 0
            hi = end - base if end - base < line_size else line_size
            chunk = src[pos : pos + hi - lo]
            pos += hi - lo
            line = lines.get(base)
            if line is not None:
                lines.move_to_end(base)
                hits += 1
            elif hi - lo == line_size:
                self._insert(base, bytearray(chunk), True)
                allocs += 1
                continue
            else:
                # a partial line is fetched — alone, because its bytes must
                # be in place before a later insert can evict it
                line = self._insert(base, bytearray(self._read_backing(base, line_size)), False)
                misses += 1
            line.data[lo:hi] = chunk
            line.dirty = True
        self.stats.hits += hits + allocs
        self.stats.misses += misses
        return hits, misses, allocs

    def flush(self, addr: int, size: int) -> int:
        """Write back dirty lines in range, keeping them valid and clean;
        each run of consecutive dirty lines is one backing write.

        Returns the number of lines written back.  Models ``dc cvac``.
        """
        if size <= 0:
            return 0
        lines, line_size = self._lines, self.line_size
        end = addr + size
        first = addr & ~(line_size - 1)
        if end <= first + line_size:  # one line: the common case
            line = lines.get(first)
            if line is None or not line.dirty:
                return 0
            self._write_backing(first, bytes(line.data))
            line.dirty = False
            self.stats.writebacks += 1
            return 1
        written = 0
        run: List[_Line] = []
        # one base past the span closes the last run
        for base in range(first, end + line_size, line_size):
            line = lines.get(base) if base < end else None
            if line is not None and line.dirty:
                run.append(line)
            elif run:
                self._write_backing(base - len(run) * line_size, b"".join(map(_DATA, run)))
                for line in run:
                    line.dirty = False
                written += len(run)
                run = []
        self.stats.writebacks += written
        return written

    def invalidate(self, addr: int, size: int) -> int:
        """Drop lines in range *without* writing them back (``dc ivac``).

        Dirty data in the range is lost — exactly like the hardware
        instruction.  Protocols that must not lose writes use
        :meth:`flush_invalidate`.
        """
        if size <= 0:
            return 0
        lines = self._lines
        pop = lines.pop
        line_size = self.line_size
        resident = len(lines)
        for base in range(addr & ~(line_size - 1), addr + size, line_size):
            pop(base, None)
        dropped = resident - len(lines)
        self.stats.invalidations += dropped
        return dropped

    def flush_invalidate(self, addr: int, size: int) -> Tuple[int, int]:
        """Write back then drop (``dc civac``).  Returns ``(written, dropped)``."""
        written = self.flush(addr, size)
        dropped = self.invalidate(addr, size)
        return written, dropped

    def flush_all(self) -> int:
        """Write back every dirty line (context switch / checkpoint path)."""
        written = 0
        for base, line in self._lines.items():
            if line.dirty:
                self._write_backing(base, bytes(line.data))
                line.dirty = False
                written += 1
        self.stats.writebacks += written
        return written

    def invalidate_all(self) -> int:
        dropped = len(self._lines)
        self._lines.clear()
        self.stats.invalidations += dropped
        return dropped

    # -- introspection (tests) ----------------------------------------------

    def contains(self, addr: int) -> bool:
        return self.line_base(addr) in self._lines

    def holds_any(self, addrs) -> bool:
        """Whether the line of any address in ``addrs`` (an int64 array) is
        resident — one C-level set test, however many addresses."""
        lines = self._lines
        return bool(lines) and not lines.keys().isdisjoint(
            (addrs & ~(self.line_size - 1)).tolist()
        )

    # -- internals -----------------------------------------------------------

    def _insert(self, base: int, data: bytearray, dirty: bool) -> _Line:
        """Install a non-resident line as most recently used; returns it."""
        while len(self._lines) >= self.capacity_lines:
            victim_base, victim = self._lines.popitem(last=False)
            if victim.dirty:
                self._write_backing(victim_base, bytes(victim.data))
                self.stats.writebacks += 1
            self.stats.evictions += 1
        line = self._lines[base] = _Line()
        line.data, line.dirty = data, dirty
        return line
