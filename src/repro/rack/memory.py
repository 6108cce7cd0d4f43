"""Backing physical memory devices and the rack-wide address map.

Every byte in the rack lives in exactly one :class:`PhysicalMemory`
device.  The :class:`AddressMap` assigns each device a physical address
range: node ``i``'s private DRAM sits at ``i * LOCAL_STRIDE`` and the
shared global pool at :data:`~repro.rack.params.GLOBAL_BASE`.  Nodes may
touch their own local range and the global range; touching another
node's local range is a protection error, mirroring the paper's model
where only *global* memory is shared.
"""

from __future__ import annotations

import mmap
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .params import GLOBAL_BASE, LOCAL_STRIDE


class MemoryKind(Enum):
    """What sort of device backs a region."""

    LOCAL_DRAM = "local_dram"
    GLOBAL = "global"
    PMEM = "pmem"


class MemoryError_(Exception):
    """Base class for memory access failures."""


class OutOfRangeError(MemoryError_):
    """Physical address falls outside every mapped region."""


class ProtectionError(MemoryError_):
    """A node touched a physical range it is not allowed to access."""


class UncorrectableMemoryError(MemoryError_):
    """An injected uncorrectable error surfaced on this access (poisoned data)."""

    def __init__(self, addr: int, node_id: int) -> None:
        super().__init__(f"uncorrectable memory error at {addr:#x} observed by node {node_id}")
        self.addr = addr
        self.node_id = node_id


class PhysicalMemory:
    """A flat, byte-addressable backing store.

    This is *device-level* memory: caches sit above it, so the bytes here
    are only as fresh as the last write-back.  Reads and writes are exact
    (no latency — the machine charges time separately).

    The store is one anonymous ``mmap`` the size of the device; ``slab``
    is a numpy ``uint8`` view *sharing that memory*, so byte-path
    operations slice the mapping directly while the bulk data plane and
    the atomics move whole slots and words of the same bytes through views
    of ``slab``.  Nobody in this process zeroes the bytes: the OS hands
    out zero-filled pages on first touch, so constructing a device costs
    one ``mmap`` call whatever its size, and only pages that were
    actually written or read count towards resident memory.  The mapping
    is released when the device and every view of it are gone; a forked
    child would share these bytes with its parent, not copy them.
    """

    def __init__(self, size: int, kind: MemoryKind, name: str = "") -> None:
        if size <= 0:
            raise ValueError("memory size must be positive")
        self._buf = mmap.mmap(-1, size)
        #: numpy uint8 view aliasing ``_buf`` (zero-copy; never resized).
        self.slab: np.ndarray = np.frombuffer(self._buf, dtype=np.uint8)
        self.size = size
        self.kind = kind
        self.name = name or kind.value
        #: Offsets poisoned by uncorrectable errors; reads of them raise.
        self.poisoned: set = set()
        # Conservative bounds on the poisoned extent: [_pmin, _pmax] always
        # covers every poisoned offset (it may over-cover after clears, which
        # only costs a scan, never a missed poison).
        self._pmin = size
        self._pmax = -1

    def read(self, offset: int, size: int) -> bytes:
        if offset < 0 or size < 0 or offset + size > self.size:  # out of range: raise there
            self._check(offset, size)
        return self._buf[offset : offset + size]  # slicing an mmap copies out bytes

    def write(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        self._buf[offset : offset + len(data)] = data

    def poison(self, offset: int, size: int = 1) -> None:
        """Mark a range as uncorrectable; accesses raise until cleared."""
        self._check(offset, size)
        self.poisoned.update(range(offset, offset + size))
        if offset < self._pmin:
            self._pmin = offset
        if offset + size - 1 > self._pmax:
            self._pmax = offset + size - 1

    def clear_poison(self, offset: int, size: int = 1) -> None:
        poisoned = self.poisoned
        if not poisoned:
            return
        lo = offset if offset > self._pmin else self._pmin
        hi = min(offset + size, self._pmax + 1)
        if lo < hi:
            poisoned.difference_update(range(lo, hi))

    def poisoned_in(self, offset: int, size: int) -> List[int]:
        """Sorted poisoned offsets within ``[offset, offset+size)``.

        The scrubber's query: bounded by the poisoned extent like
        :meth:`is_poisoned`, so clean windows cost O(1).
        """
        poisoned = self.poisoned
        if not poisoned:
            return []
        lo = offset if offset > self._pmin else self._pmin
        hi = min(offset + size, self._pmax + 1)
        if lo >= hi:
            return []
        if len(poisoned) < hi - lo:
            return sorted(o for o in poisoned if lo <= o < hi)
        return sorted(poisoned.intersection(range(lo, hi)))

    def is_poisoned(self, offset: int, size: int) -> bool:
        poisoned = self.poisoned
        if not poisoned:
            return False
        # bound the scan by the poisoned extent, then intersect over the
        # cheaper side — a large access never pays O(size) for one
        # poisoned byte somewhere else.
        lo = offset if offset > self._pmin else self._pmin
        hi = min(offset + size, self._pmax + 1)
        if lo >= hi:
            return False
        if len(poisoned) < hi - lo:
            return any(lo <= o < hi for o in poisoned)
        return not poisoned.isdisjoint(range(lo, hi))

    def _check(self, offset: int, size: int) -> None:
        if offset < 0 or size < 0 or offset + size > self.size:
            raise OutOfRangeError(
                f"access [{offset}, {offset + size}) outside device {self.name!r} of size {self.size}"
            )


@dataclass(frozen=True)
class Region:
    """One contiguous physical address range mapped to a device."""

    base: int
    size: int
    device: PhysicalMemory
    #: Owning node for local regions; ``None`` for shared regions.
    owner: Optional[int]

    @property
    def end(self) -> int:
        return self.base + self.size

    @property
    def is_global(self) -> bool:
        return self.owner is None


class AddressMap:
    """Maps rack-wide physical addresses to (region, device offset).

    The regions are fixed when the map is built: the rack's layout is
    hardware, described once at boot (§2.1, §5), so a resolution held
    anywhere (the machine's software TLB, a slot window) never goes
    stale.  Lookup is a binary search over the sorted region bases.
    """

    def __init__(self, regions: Sequence[Region]) -> None:
        #: Every mapped region, sorted by base.
        self.regions: Tuple[Region, ...] = tuple(sorted(regions, key=lambda r: r.base))
        for region in self.regions:
            if region.size > region.device.size:
                # a resolved window must lie inside the device's buffer
                raise ValueError(
                    f"region of {region.size} B is larger than its device "
                    f"{region.device.name!r} ({region.device.size} B)"
                )
        for below, above in zip(self.regions, self.regions[1:]):
            if above.base < below.end:
                raise ValueError(
                    f"region [{above.base:#x},{above.end:#x}) overlaps "
                    f"[{below.base:#x},{below.end:#x})"
                )
        self._bases = [r.base for r in self.regions]

    def resolve(self, addr: int, size: int = 1) -> Tuple[Region, int]:
        """Return the region containing ``[addr, addr+size)`` and its offset.

        Accesses may not straddle region boundaries — the machine splits
        larger accesses into per-line operations which always fit.
        """
        i = bisect_right(self._bases, addr) - 1
        if i >= 0:
            region = self.regions[i]
            if addr + size <= region.base + region.size:
                return region, addr - region.base
        raise OutOfRangeError(f"physical address {addr:#x} (+{size}) is unmapped")


def build_address_map(
    local_devices: Dict[int, PhysicalMemory], global_device: PhysicalMemory
) -> AddressMap:
    """Standard rack layout: node-local regions then the global pool."""
    regions = []
    for node_id, dev in sorted(local_devices.items()):
        if dev.size > LOCAL_STRIDE:
            raise ValueError("local memory exceeds its address stride")
        regions.append(Region(base=node_id * LOCAL_STRIDE, size=dev.size, device=dev, owner=node_id))
    regions.append(Region(base=GLOBAL_BASE, size=global_device.size, device=global_device, owner=None))
    return AddressMap(regions)
