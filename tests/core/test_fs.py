"""Tests for FlacFS: shared page cache, metadata, journal, block layer."""

import pytest

from repro.core.fs import (
    BlockDevice,
    BlockDeviceError,
    FileExists,
    FileNotFound,
    FlacFS,
    FsError,
    IsADirectory,
    NotADirectory,
    PAGE_SIZE,
    PrivateCacheFS,
    cache_key,
)
from repro.core.fs.page_cache import _DIRTY


def evict_file(fs, ctx, file_id: int, n_pages: int) -> int:
    """Drop a file's clean cached pages (dirty ones must be written back
    first), so the next read loads from the block device."""
    cache, evicted = fs.page_cache, 0
    for page_idx in range(n_pages):
        key = cache_key(file_id, page_idx)
        value = cache.tree.lookup(ctx, key)
        if value is None or value & _DIRTY:
            continue
        removed = cache.tree.remove(ctx, key)
        if removed is not None:
            cache.reclaimer.retire(ctx, removed & ~_DIRTY, lambda addr: cache.frames.free(ctx, addr))
            evicted += 1
    return evicted


@pytest.fixture
def fs(rack2):
    machine, _, _, arena = rack2
    return FlacFS(machine, arena)


class TestNamespace:
    def test_create_stat_across_nodes(self, rack2, fs):
        _, c0, c1, _ = rack2
        fs.metadata.create(c0, "/a.txt", is_dir=False)
        inode = fs.stat(c1, "/a.txt")
        assert not inode.is_dir and inode.size == 0

    def test_nested_directories(self, rack2, fs):
        _, c0, c1, _ = rack2
        fs.mkdir(c0, "/x")
        fs.mkdir(c1, "/x/y")
        fs.metadata.create(c0, "/x/y/z.txt", is_dir=False)
        assert fs.exists(c1, "/x/y/z.txt")

    def test_duplicate_create_rejected(self, rack2, fs):
        _, c0, c1, _ = rack2
        fs.metadata.create(c0, "/dup", is_dir=False)
        with pytest.raises(FileExists):
            fs.metadata.create(c1, "/dup", is_dir=False)

    def test_missing_file(self, rack2, fs):
        _, c0, _, _ = rack2
        with pytest.raises(FileNotFound):
            fs.stat(c0, "/ghost")
        with pytest.raises(FileNotFound):
            fs.open(c0, "/ghost")

    def test_file_as_directory_rejected(self, rack2, fs):
        _, c0, _, _ = rack2
        fs.metadata.create(c0, "/f", is_dir=False)
        with pytest.raises(NotADirectory):
            fs.metadata.create(c0, "/f/child", is_dir=False)
        with pytest.raises(IsADirectory):
            fs.mkdir(c0, "/d") and fs.open(c0, "/d")

    def test_relative_path_rejected(self, rack2, fs):
        _, c0, _, _ = rack2
        with pytest.raises(FsError):
            fs.metadata.create(c0, "relative/path", is_dir=False)


class TestDataPath:
    def test_write_read_round_trip(self, rack2, fs):
        _, c0, _, _ = rack2
        fd = fs.open(c0, "/data", create=True)
        payload = bytes(range(256)) * 40  # 10 KiB, 3 pages
        fs.write(c0, fd, 0, payload)
        assert fs.read(c0, fd, 0, len(payload)) == payload
        assert fs.stat(c0, "/data").size == len(payload)

    def test_cross_node_read_hits_shared_cache(self, rack2, fs):
        _, c0, c1, _ = rack2
        fd0 = fs.open(c0, "/shared", create=True)
        fs.write(c0, fd0, 0, b"cached once" * 500)
        loads_before = fs.page_cache.stats.loads_from_device
        fd1 = fs.open(c1, "/shared")
        assert fs.read(c1, fd1, 0, 11) == b"cached once"
        assert fs.page_cache.stats.loads_from_device == loads_before

    def test_sparse_read_returns_zeroes(self, rack2, fs):
        _, c0, _, _ = rack2
        fd = fs.open(c0, "/sparse", create=True)
        fs.write(c0, fd, 3 * PAGE_SIZE, b"tail")
        assert fs.read(c0, fd, 0, 8) == bytes(8)

    def test_read_beyond_eof_truncated(self, rack2, fs):
        _, c0, _, _ = rack2
        fd = fs.open(c0, "/short", create=True)
        fs.write(c0, fd, 0, b"abc")
        assert fs.read(c0, fd, 0, 100) == b"abc"
        assert fs.read(c0, fd, 50, 10) == b""

    def test_overwrite_within_page(self, rack2, fs):
        _, c0, c1, _ = rack2
        fd = fs.open(c0, "/patch", create=True)
        fs.write(c0, fd, 0, b"aaaaaaaaaa")
        fd1 = fs.open(c1, "/patch")
        fs.write(c1, fd1, 3, b"BBB")
        assert fs.read(c0, fd, 0, 10) == b"aaaBBBaaaa"

    def test_bad_fd(self, rack2, fs):
        _, c0, _, _ = rack2
        with pytest.raises(FsError):
            fs.read(c0, 99, 0, 1)
        fd = fs.open(c0, "/f", create=True)
        fs.close(c0, fd)
        with pytest.raises(FsError):
            fs.write(c0, fd, 0, b"x")


class TestPageCacheMechanics:
    def test_writes_are_dirty_until_writeback(self, rack2, fs):
        _, c0, _, _ = rack2
        fd = fs.open(c0, "/wb", create=True)
        fs.write(c0, fd, 0, b"dirty page")
        cleaned = fs.fsync(c0)
        assert cleaned == 1
        assert fs.fsync(c0) == 0  # clean after writeback
        assert fs.device.writes == 1

    def test_data_survives_eviction_after_writeback(self, rack2, fs):
        _, c0, c1, _ = rack2
        fd = fs.open(c0, "/persist", create=True)
        fs.write(c0, fd, 0, b"to disk and back")
        fs.fsync(c0)
        ino = fs.stat(c0, "/persist").ino
        assert evict_file(fs, c0, ino, 1) == 1
        # re-read now loads from the device
        loads_before = fs.page_cache.stats.loads_from_device
        fd1 = fs.open(c1, "/persist")
        assert fs.read(c1, fd1, 0, 16) == b"to disk and back"
        assert fs.page_cache.stats.loads_from_device == loads_before + 1

    def test_dirty_pages_not_evicted(self, rack2, fs):
        _, c0, _, _ = rack2
        fd = fs.open(c0, "/pinned", create=True)
        fs.write(c0, fd, 0, b"unwritten")
        ino = fs.stat(c0, "/pinned").ino
        assert evict_file(fs, c0, ino, 1) == 0

    def test_multiversion_update_retires_old_frame(self, rack2, fs):
        _, c0, c1, _ = rack2
        fd = fs.open(c0, "/mv", create=True)
        fs.write(c0, fd, 0, b"v1")
        swaps_before = fs.page_cache.stats.version_swaps
        fd1 = fs.open(c1, "/mv")
        fs.write(c1, fd1, 0, b"v2")
        assert fs.page_cache.stats.version_swaps == swaps_before + 1
        assert sum(map(len, fs.reclaimer._retired.values())) >= 1  # old version awaiting quiescence
        fs.reclaimer.advance_and_reclaim(c1)
        assert fs.read(c0, fd, 0, 2) == b"v2"

    def test_hits_and_misses_are_counted(self, rack2, fs):
        _, c0, _, _ = rack2
        fd = fs.open(c0, "/hits", create=True)
        fs.write(c0, fd, 0, b"x" * PAGE_SIZE)
        stats = fs.page_cache.stats
        hits, misses = stats.hits, stats.misses
        for _ in range(3):
            fs.read(c0, fd, 0, 512)
        assert (stats.hits, stats.misses) == (hits + 3, misses)
        ino = fs.stat(c0, "/hits").ino
        assert fs.page_cache.get_page(c0, ino, 7) is None  # absent, no loader
        assert (stats.hits, stats.misses) == (hits + 3, misses + 1)

    def test_cache_key_bounds(self):
        from repro.core.fs import PageCacheError

        with pytest.raises(PageCacheError):
            cache_key(1 << 20, 0)
        with pytest.raises(PageCacheError):
            cache_key(0, 1 << 28)


class TestBlockDevice:
    def test_read_write_round_trip(self, rack2):
        _, c0, _, _ = rack2
        dev = BlockDevice()
        dev.write_block(c0, 5, b"Z" * 4096)
        assert dev.read_block(c0, 5) == b"Z" * 4096

    def test_unwritten_block_is_zero(self, rack2):
        _, c0, _, _ = rack2
        assert BlockDevice().read_block(c0, 0) == bytes(4096)

    def test_charges_time(self, rack2):
        _, c0, _, _ = rack2
        before = c0.now()
        BlockDevice().read_block(c0, 0)
        assert c0.now() - before >= 20_000

    def test_bad_block_rejected(self, rack2):
        _, c0, _, _ = rack2
        dev = BlockDevice()
        with pytest.raises(BlockDeviceError):
            dev.read_block(c0, 1 << 30)
        with pytest.raises(BlockDeviceError):
            dev.write_block(c0, 0, b"short")


class TestPrivateCacheBaseline:
    def test_each_node_keeps_its_own_copy(self, rack2):
        _, c0, c1, _ = rack2
        pfs = PrivateCacheFS()
        pfs.create(c0, "/f")
        pfs.write(c0, "/f", 0, b"y" * (2 * PAGE_SIZE))
        pfs.read(c1, "/f", 0, 2 * PAGE_SIZE)
        assert pfs.cache_footprint_bytes() == 4 * PAGE_SIZE  # two copies

    def test_cross_node_first_read_misses(self, rack2):
        _, c0, c1, _ = rack2
        pfs = PrivateCacheFS()
        pfs.create(c0, "/f")
        pfs.write(c0, "/f", 0, b"y" * PAGE_SIZE)
        assert pfs.read(c1, "/f", 0, PAGE_SIZE) == b"y" * PAGE_SIZE
        assert pfs.misses == 1
        pfs.read(c1, "/f", 0, PAGE_SIZE)
        assert pfs.hits == 1

    def test_shared_cache_footprint_smaller(self, rack2, fs):
        _, c0, c1, _ = rack2
        fd = fs.open(c0, "/big", create=True)
        fs.write(c0, fd, 0, b"d" * (4 * PAGE_SIZE))
        fd1 = fs.open(c1, "/big")
        fs.read(c1, fd1, 0, 4 * PAGE_SIZE)
        shared = fs.cache_footprint_bytes(c0)

        pfs = PrivateCacheFS()
        pfs.create(c0, "/big")
        pfs.write(c0, "/big", 0, b"d" * (4 * PAGE_SIZE))
        pfs.read(c1, "/big", 0, 4 * PAGE_SIZE)
        assert shared < pfs.cache_footprint_bytes()
