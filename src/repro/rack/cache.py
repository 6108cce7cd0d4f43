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


class _Line:
    """One resident line: ``data`` (a bytearray) and ``dirty``; built by
    :meth:`NodeCache._insert` (no ``__init__``: a fill costs no frame)."""

    __slots__ = ("data", "dirty")


_DATA, _DIRTY = attrgetter("data"), attrgetter("dirty")


class NodeCache:
    """A write-back, write-allocate cache with LRU replacement.

    ``read_backing`` / ``write_backing`` are callbacks into the machine so
    the cache itself stays ignorant of the address map; they take rack
    physical addresses aligned to the line size.

    Maintenance is run-granular (DESIGN.md §3): a load run wholly absent is
    one ``read_backing`` call, a run of consecutive dirty lines one
    ``write_backing`` call; lines are still inserted one at a time, in
    order.  ``read_backing`` may answer a multi-line read with ``None`` to
    have that run fetched line by line.
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

    # -- core operations ---------------------------------------------------

    def load(self, addr: int, size: int) -> Tuple[bytes, int, int]:
        """Read through the cache.  Returns ``(data, hits, misses)``.

        A resident line is a hit (and becomes most recently used), an absent
        one is read and installed.  A run wholly absent is one backing read —
        or, when the reader answers ``None``, one read per line — and one pass
        of installs in address order, inline while there is room."""
        if size <= 0:
            return b"", 0, 0
        lines, line_size = self._lines, self.line_size
        read, insert = self._read_backing, self._insert
        base = addr & ~(line_size - 1)
        end = addr + size
        lo = addr - base
        if end <= base + line_size:  # one line: the common case
            line = lines.get(base)
            if line is not None:
                lines.move_to_end(base)
                self.stats.hits += 1
                return bytes(line.data[lo : end - base]), 1, 0
            buf = read(base, line_size)
            if len(lines) < self.capacity_lines:  # room: no victim, no frame
                line = lines[base] = _Line()
                line.data, line.dirty = bytearray(buf), False
            else:
                insert(base, bytearray(buf), False)
            self.stats.misses += 1
            return buf[lo : end - base], 0, 1
        run = range(base, end, line_size)
        n = len(run)
        if lines.keys().isdisjoint(run):
            buf = read(base, n * line_size)  # wholly absent: one read, one pass of installs
            if buf is not None:
                for pos in range(0, n * line_size, line_size):
                    if len(lines) < self.capacity_lines:  # room: no victim, no frame
                        line = lines[base + pos] = _Line()
                        line.data, line.dirty = bytearray(buf[pos : pos + line_size]), False
                    else:
                        insert(base + pos, bytearray(buf[pos : pos + line_size]), False)
                self.stats.misses += n
                return buf[lo : lo + size], 0, n
        out = bytearray()
        hits = misses = 0
        for base in run:  # anything else: line by line, in address order
            line = lines.get(base)
            if line is None:
                buf = read(base, line_size)
                insert(base, bytearray(buf), False)
                misses += 1
                out += buf
            else:
                lines.move_to_end(base)
                hits += 1
                out += line.data
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
        for base in range(base, end, line_size):
            lo = addr - base if base < addr else 0
            hi = end - base if end - base < line_size else line_size
            chunk = src[base - addr + lo : base - addr + hi]
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
        span = list(map(lines.get, range(first, end, line_size)))
        if None not in span and all(map(_DIRTY, span)):  # wholly dirty: one pass
            self._write_backing(first, b"".join(map(_DATA, span)))
            for line in span:
                line.dirty = False
            self.stats.writebacks += len(span)
            return len(span)
        written = 0
        run: List[_Line] = []
        # one base past the span closes the last run
        for base, line in zip(range(first, end + line_size, line_size), span + [None]):
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
        instruction.  Protocols that must not lose writes :meth:`flush`
        first.
        """
        if size <= 0:
            return 0
        lines = self._lines
        line_size = self.line_size
        base = addr & ~(line_size - 1)
        if addr + size <= base + line_size:  # one line: the common case
            if lines.pop(base, None) is None:
                return 0
            self.stats.invalidations += 1
            return 1
        resident = len(lines)
        for base in filter(lines.__contains__, range(base, addr + size, line_size)):
            del lines[base]  # only resident lines reach Python code
        dropped = resident - len(lines)
        self.stats.invalidations += dropped
        return dropped

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
