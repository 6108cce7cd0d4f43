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
    __slots__ = ("data", "dirty")

    def __init__(self, data: bytearray, dirty: bool = False) -> None:
        self.data = data
        self.dirty = dirty


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
        """Read through the cache.  Returns ``(data, hits, misses)``."""
        if size <= 0:
            return b"", 0, 0
        line_size = self.line_size
        base = addr & ~(line_size - 1)
        if addr + size <= base + line_size:
            # fast path: the overwhelmingly common single-line access —
            # one dict probe, one move_to_end, one slice.
            lines = self._lines
            line = lines.get(base)
            lo = addr - base
            if line is not None:
                lines.move_to_end(base)
                self.stats.hits += 1
                return bytes(line.data[lo : lo + size]), 1, 0
            line = _Line(bytearray(self._read_backing(base, line_size)))
            self._insert(base, line)
            self.stats.misses += 1
            return bytes(line.data[lo : lo + size]), 0, 1
        lines = self._lines
        end = addr + size
        lo = addr - base
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
            out += self._fill(base, stop)
            misses += (stop - base) // line_size
            base = stop
        self.stats.hits += hits
        self.stats.misses += misses
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
        line_size = self.line_size
        base = addr & ~(line_size - 1)
        if addr + size <= base + line_size:
            # fast path: single-line store (hit, full-line allocate, or
            # partial-line fetch) without the generator machinery.
            lines = self._lines
            line = lines.get(base)
            lo = addr - base
            if line is not None:
                lines.move_to_end(base)
                line.data[lo : lo + size] = data
                line.dirty = True
                self.stats.hits += 1
                return 1, 0, 0
            if size == line_size:  # lo == 0 implied by the span check
                self._insert(base, _Line(bytearray(data), dirty=True))
                self.stats.hits += 1  # allocs are charged like hits
                return 0, 0, 1
            line = _Line(bytearray(self._read_backing(base, line_size)))
            self._insert(base, line)
            line.data[lo : lo + size] = data
            line.dirty = True
            self.stats.misses += 1
            return 0, 1, 0
        lines = self._lines
        end = addr + size
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
                self._insert(base, _Line(bytearray(chunk), dirty=True))
                allocs += 1
                continue
            else:
                # a partial line is fetched — alone, because its bytes must
                # be in place before a later insert can evict it
                line = _Line(bytearray(self._read_backing(base, line_size)))
                self._insert(base, line)
                misses += 1
            line.data[lo:hi] = chunk
            line.dirty = True
        self.stats.hits += hits + allocs
        self.stats.misses += misses
        return hits, misses, allocs

    def flush(self, addr: int, size: int) -> int:
        """Write back dirty lines in range, keeping them valid and clean.

        Returns the number of lines written back.  Models ``dc cvac``.
        """
        if size <= 0:
            return 0
        lines = self._lines
        line_size = self.line_size
        first = addr & ~(line_size - 1)
        if addr + size <= first + line_size:
            # fast path: one line, no run bookkeeping
            line = lines.get(first)
            if line is None or not line.dirty:
                return 0
            self._write_backing(first, bytes(line.data))
            line.dirty = False
            self.stats.writebacks += 1
            return 1
        written = 0
        run: List[_Line] = []
        for base in range(first, addr + size, line_size):
            line = lines.get(base)
            if line is not None and line.dirty:
                run.append(line)
            elif run:
                written += self._write_back(base, run)
        if run:
            written += self._write_back(base + line_size, run)
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

    def is_dirty(self, addr: int) -> bool:
        line = self._lines.get(self.line_base(addr))
        return bool(line and line.dirty)

    def resident_lines(self) -> int:
        return len(self._lines)

    # -- internals -----------------------------------------------------------

    def _fill(self, base: int, stop: int) -> bytes:
        """Fetch the non-resident lines ``[base, stop)`` — in one backing
        read when the backing allows — insert them in address order, and
        return their bytes."""
        line_size = self.line_size
        read = self._read_backing
        insert = self._insert
        buf = read(base, stop - base) if stop - base > line_size else None
        if buf is None:
            parts = []
            for base in range(base, stop, line_size):
                parts.append(read(base, line_size))
                insert(base, _Line(bytearray(parts[-1])))
            return b"".join(parts)
        for pos in range(0, stop - base, line_size):
            insert(base + pos, _Line(bytearray(buf[pos : pos + line_size])))
        return buf

    def _write_back(self, stop: int, run: List[_Line]) -> int:
        """Write the consecutive dirty lines ending at ``stop`` as one
        backing write, mark them clean and empty ``run``."""
        n = len(run)
        self._write_backing(stop - n * self.line_size, b"".join([line.data for line in run]))
        for line in run:
            line.dirty = False
        run.clear()
        return n

    def _insert(self, base: int, line: _Line) -> None:
        """Install a non-resident line as most recently used."""
        while len(self._lines) >= self.capacity_lines:
            victim_base, victim = self._lines.popitem(last=False)
            if victim.dirty:
                self._write_backing(victim_base, bytes(victim.data))
                self.stats.writebacks += 1
            self.stats.evictions += 1
        self._lines[base] = line
