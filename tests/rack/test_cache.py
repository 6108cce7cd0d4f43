"""Unit and property tests for the non-coherent write-back cache."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rack.cache import NodeCache


class Backing:
    """A tiny backing store recording write-backs."""

    def __init__(self, size=1 << 16):
        self.buf = bytearray(size)
        self.writebacks = []

    def read(self, addr, size):
        return bytes(self.buf[addr : addr + size])

    def write(self, addr, data):
        self.writebacks.append((addr, bytes(data)))
        self.buf[addr : addr + len(data)] = data


def make_cache(capacity_lines=16, line_size=64, backing=None):
    backing = backing or Backing()
    cache = NodeCache(capacity_lines, line_size, backing.read, backing.write)
    return cache, backing


class TestBasics:
    def test_load_pulls_from_backing(self):
        cache, backing = make_cache()
        backing.buf[100:103] = b"xyz"
        data, hits, misses = cache.load(100, 3)
        assert data == b"xyz"
        assert (hits, misses) == (0, 1)

    def test_second_load_hits(self):
        cache, _ = make_cache()
        cache.load(0, 8)
        _, hits, misses = cache.load(0, 8)
        assert (hits, misses) == (1, 0)

    def test_store_is_not_written_back_until_flush(self):
        cache, backing = make_cache()
        cache.store(0, b"dirty")
        assert backing.buf[0:5] == bytes(5)
        cache.flush(0, 5)
        assert backing.buf[0:5] == b"dirty"

    def test_flush_clean_line_writes_nothing(self):
        cache, backing = make_cache()
        cache.load(0, 8)
        assert cache.flush(0, 8) == 0
        assert backing.writebacks == []

    def test_invalidate_discards_dirty_data(self):
        cache, backing = make_cache()
        cache.store(0, b"gone")
        cache.invalidate(0, 4)
        data, _, _ = cache.load(0, 4)
        assert data == bytes(4)
        assert backing.writebacks == []

    def test_flush_invalidate_preserves_then_drops(self):
        cache, backing = make_cache()
        cache.store(0, b"keep")
        written, dropped = cache.flush(0, 4), cache.invalidate(0, 4)
        assert (written, dropped) == (1, 1)
        assert backing.buf[0:4] == b"keep"
        assert 0 not in cache._lines

    def test_load_spanning_lines(self):
        cache, backing = make_cache(line_size=64)
        backing.buf[60:70] = b"0123456789"
        data, hits, misses = cache.load(60, 10)
        assert data == b"0123456789"
        assert misses == 2

    def test_store_spanning_lines_round_trips(self):
        cache, _ = make_cache(line_size=64)
        cache.store(60, b"0123456789")
        data, _, _ = cache.load(60, 10)
        assert data == b"0123456789"

    def test_full_line_store_does_not_fetch(self):
        cache, backing = make_cache(line_size=64)
        backing.buf[0:64] = b"\xff" * 64
        hits, misses, allocs = cache.store(0, b"\x00" * 64)
        assert (hits, misses, allocs) == (0, 0, 1)
        data, _, _ = cache.load(0, 64)
        assert data == b"\x00" * 64

    def test_zero_size_load(self):
        cache, _ = make_cache()
        data, hits, misses = cache.load(0, 0)
        assert data == b"" and hits == 0 and misses == 0


class TestEviction:
    def test_capacity_is_enforced(self):
        cache, _ = make_cache(capacity_lines=4, line_size=64)
        for i in range(8):
            cache.load(i * 64, 1)
        assert len(cache._lines) == 4

    def test_dirty_victim_is_written_back(self):
        cache, backing = make_cache(capacity_lines=2, line_size=64)
        cache.store(0, b"victim")
        cache.load(64, 1)
        cache.load(128, 1)  # evicts line 0
        assert backing.buf[0:6] == b"victim"

    def test_lru_order(self):
        cache, _ = make_cache(capacity_lines=2, line_size=64)
        cache.load(0, 1)
        cache.load(64, 1)
        cache.load(0, 1)  # refresh line 0
        cache.load(128, 1)  # should evict line 64, not 0
        assert 0 in cache._lines
        assert 64 not in cache._lines

    def test_eviction_stats(self):
        cache, _ = make_cache(capacity_lines=2, line_size=64)
        for i in range(4):
            cache.load(i * 64, 1)
        assert cache.stats.evictions == 2


class TestMaintenance:
    def test_flush_all_writes_every_dirty_line(self):
        cache, backing = make_cache()
        cache.store(0, b"a")
        cache.store(64, b"b")
        cache.load(128, 1)
        assert cache.flush_all() == 2
        assert backing.buf[0:1] == b"a" and backing.buf[64:65] == b"b"

    def test_invalidate_all(self):
        cache, _ = make_cache()
        cache.load(0, 1)
        cache.store(64, b"x")
        assert cache.invalidate_all() == 2
        assert len(cache._lines) == 0

    def test_is_dirty(self):
        cache, _ = make_cache()
        cache.load(0, 1)
        assert not cache._lines[0].dirty
        cache.store(0, b"z")
        assert cache._lines[0].dirty
        cache.flush(0, 1)
        assert not cache._lines[0].dirty

    def test_hit_rate(self):
        cache, _ = make_cache()
        cache.load(0, 1)
        cache.load(0, 1)
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["load", "store", "flush", "flush_inval"]),
            st.integers(min_value=0, max_value=1000),
            st.integers(min_value=1, max_value=200),
        ),
        max_size=40,
    )
)
def test_single_node_read_your_writes(ops):
    """With only one cache, any op sequence behaves like flat memory.

    A shadow bytearray tracks what the single writer wrote; loads through
    the cache must always agree (coherence problems need two caches).
    """
    cache, backing = make_cache(capacity_lines=8, line_size=64)
    shadow = bytearray(1 << 16)
    for i, (op, addr, size) in enumerate(ops):
        if op == "load":
            data, _, _ = cache.load(addr, size)
            assert data == bytes(shadow[addr : addr + size])
        elif op == "store":
            payload = bytes((i + j) % 256 for j in range(size))
            cache.store(addr, payload)
            shadow[addr : addr + size] = payload
        elif op == "flush":
            cache.flush(addr, size)
        else:
            cache.flush(addr, size)
            cache.invalidate(addr, size)


@settings(max_examples=40, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(min_value=0, max_value=2000), st.binary(min_size=1, max_size=150)),
        min_size=1,
        max_size=20,
    )
)
def test_flush_all_makes_backing_match_shadow(writes):
    """After flush_all, the backing store holds exactly what was written."""
    cache, backing = make_cache(capacity_lines=64, line_size=64)
    shadow = bytearray(1 << 16)
    for addr, data in writes:
        cache.store(addr, data)
        shadow[addr : addr + len(data)] = data
    cache.flush_all()
    assert backing.buf == shadow


# -- run-granular maintenance: backing calls per run ---------------------------
#
# What the cache returns, counts and leaves resident for any op sequence is
# checked against the line-at-a-time reference rack
# (tests/reference/test_reference_rack.py); what is left here is what that
# model cannot see — how many backing calls a run takes.


def test_refill_after_invalidate_is_one_backing_read():
    """The per-line walk cannot quietly come back: ten lines, one read."""
    cache, backing = make_cache()
    reads = []
    cache._read_backing = lambda addr, size: reads.append((addr, size)) or backing.read(addr, size)
    cache.load(30, 600)
    cache.invalidate(30, 600)
    del reads[:]
    data, hits, misses = cache.load(30, 600)
    assert (hits, misses) == (0, 10) and data == backing.read(30, 600)
    assert reads == [(0, 640)]


def test_flush_of_a_dirty_span_is_one_backing_write():
    cache, backing = make_cache()
    payload = bytes(range(256)) * 3
    cache.store(30, payload[:600])
    assert cache.flush(30, 600) == 10
    assert [(addr, len(data)) for addr, data in backing.writebacks] == [(0, 640)]
    assert backing.buf[30:630] == payload[:600]


def test_reader_that_declines_a_run_is_asked_line_by_line():
    """``None`` for a multi-line read means: fetch these one at a time."""
    cache, backing = make_cache()
    backing.buf[0:640] = bytes(range(256)) * 2 + bytes(128)
    reads = []

    def reader(addr, size):
        reads.append((addr, size))
        return None if size > 64 else backing.read(addr, size)

    cache._read_backing = reader
    data, hits, misses = cache.load(0, 640)
    assert data == bytes(backing.buf[0:640]) and (hits, misses) == (0, 10)
    assert reads == [(0, 640)] + [(64 * i, 64) for i in range(10)]
