"""Unit tests for backing memory devices and the rack address map."""

import resource

import numpy as np
import pytest

from repro.rack import (
    GLOBAL_BASE,
    LOCAL_STRIDE,
    MemoryKind,
    OutOfRangeError,
    PhysicalMemory,
    Region,
)
from repro.rack.machine import _slots
from repro.rack.memory import AddressMap, build_address_map


class TestPhysicalMemory:
    def test_read_back_what_was_written(self):
        mem = PhysicalMemory(1024, MemoryKind.LOCAL_DRAM)
        mem.write(100, b"abc")
        assert mem.read(100, 3) == b"abc"

    def test_initial_contents_are_zero(self):
        mem = PhysicalMemory(64, MemoryKind.GLOBAL)
        assert mem.read(0, 64) == bytes(64)

    def test_out_of_range_read_raises(self):
        mem = PhysicalMemory(64, MemoryKind.GLOBAL)
        with pytest.raises(OutOfRangeError):
            mem.read(60, 8)

    def test_out_of_range_write_raises(self):
        mem = PhysicalMemory(64, MemoryKind.GLOBAL)
        with pytest.raises(OutOfRangeError):
            mem.write(63, b"ab")

    def test_negative_offset_raises(self):
        mem = PhysicalMemory(64, MemoryKind.GLOBAL)
        with pytest.raises(OutOfRangeError):
            mem.read(-1, 1)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(0, MemoryKind.GLOBAL)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(-4096, MemoryKind.GLOBAL)

    def test_poison_tracking(self):
        mem = PhysicalMemory(128, MemoryKind.GLOBAL)
        mem.poison(10, 4)
        assert mem.is_poisoned(8, 8)
        assert not mem.is_poisoned(0, 10)
        mem.clear_poison(10, 4)
        assert not mem.is_poisoned(8, 8)


class TestBacking:
    """The device is an OS-zeroed, first-touch mapping: nobody memsets it,
    yet every reader sees zeros and every mutator lands in the same bytes."""

    SIZE = 1 << 24

    def _readers(self, mem, off, n):
        return {"read": mem.read(off, n), "slab": mem.slab[off : off + n].tobytes()}

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_fresh_device_reads_zero_everywhere(self, where):
        mem = PhysicalMemory(self.SIZE, MemoryKind.GLOBAL)
        off = {"first": 0, "middle": self.SIZE // 2 - 3, "last": self.SIZE - 8}[where]
        assert self._readers(mem, off, 8) == dict.fromkeys(("read", "slab"), bytes(8))

    def test_every_mutator_is_seen_by_every_reader(self):
        mem = PhysicalMemory(self.SIZE, MemoryKind.GLOBAL)
        end = self.SIZE - 16
        mem.write(end, b"0123456789abcdef")
        mem.slab[64:68] = np.frombuffer(b"slab", np.uint8)
        mem.slab[12000:12016].view("V8")[:] = np.frombuffer(b"slotted!SLOTTED?", "V8")
        mem.slab[13000:13004] = (1, 2, 3, 4)
        expect = {
            (end, 16): b"0123456789abcdef",
            (64, 4): b"slab",
            (12000, 16): b"slotted!SLOTTED?",
            (13000, 4): b"\x01\x02\x03\x04",
        }
        for (off, n), want in expect.items():
            assert self._readers(mem, off, n) == dict.fromkeys(("read", "slab"), want)

    def test_read_returns_an_immutable_snapshot(self):
        mem = PhysicalMemory(64, MemoryKind.GLOBAL)
        mem.write(0, b"old")
        got = mem.read(0, 3)
        mem.write(0, b"new")
        assert type(got) is bytes and got == b"old"

    def test_untouched_pages_cost_no_resident_memory(self):
        """1 GiB device, one page touched: resident growth stays far below
        the 1 GiB an eagerly zeroed slab would pin."""
        before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        mem = PhysicalMemory(1 << 30, MemoryKind.GLOBAL)
        mem.write(512 << 20, b"x")
        assert mem.read((1 << 30) - 1, 1) == b"\x00"
        grown_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before_kb
        assert grown_kb < 64 * 1024


class TestGatherScatter:
    """The bulk data plane's gather and scatter on a device: ``take`` and
    indexed assignment on the slot view of a span (``machine._slots``, items
    of ``size`` opaque bytes), which replaced the row-window
    ``PhysicalMemory.gather`` / ``scatter``."""

    def _slots(self, size):
        mem = PhysicalMemory(256, MemoryKind.GLOBAL)
        mem.write(0, bytes(range(256)))
        n = 256 // size
        return mem, n, _slots(mem, 0, n * size, size)

    @pytest.mark.parametrize("size", [1, 3, 8, 64])
    def test_gather_reads_each_window(self, size):
        mem, n, slots = self._slots(size)
        idx = np.array([0, 1, n // 3, n - 1, 1], dtype=np.int64)  # repeats, the last slot
        want = [mem.read(i * size, size) for i in idx.tolist()]
        assert [bytes(row) for row in slots.take(idx)] == want

    @pytest.mark.parametrize("size", [1, 3, 8, 64])
    def test_scatter_writes_each_window_and_nothing_else(self, size):
        mem, n, slots = self._slots(size)
        idx = [n - 1, 0, n // 2]
        payload = (np.arange(3 * size, dtype=np.uint8) ^ 0xA5).tobytes()
        expect = bytearray(range(256))
        for k, i in enumerate(idx):
            expect[i * size : (i + 1) * size] = payload[k * size : (k + 1) * size]
        slots[np.array(idx)] = np.frombuffer(payload, dtype=slots.dtype)
        assert mem.read(0, 256) == bytes(expect)

    def test_gather_returns_a_copy(self):
        mem, _, slots = self._slots(4)
        rows = slots.take(np.array([2, 3]))
        rows.view(np.uint8)[:] = 0
        assert mem.read(8, 8) == bytes(range(8, 16))

    @pytest.mark.parametrize("size", [1, 8, 64])
    def test_offset_past_last_window_raises_not_wraps(self, size):
        mem, n, slots = self._slots(size)
        before = mem.read(0, 256)
        past = np.array([0, n], dtype=np.int64)
        with pytest.raises(IndexError):
            slots.take(past)
        with pytest.raises(IndexError):
            slots[past] = np.zeros(2, dtype=slots.dtype)
        assert mem.read(0, 256) == before  # nothing written, in or out of bounds


class TestAddressMap:
    def _map(self):
        locals_ = {
            0: PhysicalMemory(4096, MemoryKind.LOCAL_DRAM, "l0"),
            1: PhysicalMemory(4096, MemoryKind.LOCAL_DRAM, "l1"),
        }
        gmem = PhysicalMemory(8192, MemoryKind.GLOBAL)
        return build_address_map(locals_, gmem), locals_, gmem

    def test_local_regions_at_strides(self):
        amap, locals_, _ = self._map()
        region, off = amap.resolve(0)
        assert region.owner == 0 and off == 0
        region, off = amap.resolve(LOCAL_STRIDE + 100)
        assert region.owner == 1 and off == 100
        assert region.device is locals_[1]

    def test_global_region_at_global_base(self):
        amap, _, gmem = self._map()
        region, off = amap.resolve(GLOBAL_BASE + 8000, 100)
        assert region.is_global and off == 8000
        assert region.device is gmem

    def test_unmapped_address_raises(self):
        amap, _, _ = self._map()
        with pytest.raises(OutOfRangeError):
            amap.resolve(4096)  # past node 0's local memory
        with pytest.raises(OutOfRangeError):
            amap.resolve(GLOBAL_BASE + 8192)

    def test_access_must_fit_in_one_region(self):
        amap, _, _ = self._map()
        with pytest.raises(OutOfRangeError):
            amap.resolve(4090, 16)

    def test_overlapping_regions_rejected(self):
        dev = PhysicalMemory(100, MemoryKind.GLOBAL)
        with pytest.raises(ValueError, match="overlaps"):
            AddressMap([Region(base=50, size=100, device=dev, owner=None),
                        Region(base=0, size=100, device=dev, owner=None)])

    def test_region_larger_than_its_device_rejected(self):
        dev = PhysicalMemory(64, MemoryKind.GLOBAL)
        with pytest.raises(ValueError, match="larger than its device"):
            AddressMap([Region(base=0, size=128, device=dev, owner=None)])

    def test_local_memory_larger_than_stride_rejected(self):
        dev = PhysicalMemory(64, MemoryKind.LOCAL_DRAM)
        dev.size = LOCAL_STRIDE + 64  # pretend, without allocating 64 GiB
        with pytest.raises(ValueError):
            build_address_map({0: dev}, PhysicalMemory(64, MemoryKind.GLOBAL))
