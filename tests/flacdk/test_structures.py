"""Tests for shared data structures: SPSC ring and radix tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flacdk.arena import Arena
from repro.flacdk.alloc import SharedHeap
from repro.flacdk.structures import RingError, SharedRadixTree, SpscRing
from repro.rack import RackConfig, RackMachine


class TestSpscRing:
    @pytest.fixture
    def ring(self, rig):
        _, ctxs, arena = rig
        base = arena.take(SpscRing.region_size(4, 256))
        return SpscRing(base, 4, 256).format(ctxs[0])

    def test_fifo_order_across_nodes(self, rig, ring):
        _, ctxs, _ = rig
        for i in range(3):
            assert ring.try_push(ctxs[0], bytes([i]))
        assert [ring.try_pop(ctxs[1]) for _ in range(3)] == [b"\x00", b"\x01", b"\x02"]

    def test_pop_empty_returns_none(self, rig, ring):
        _, ctxs, _ = rig
        assert ring.try_pop(ctxs[1]) is None

    def test_push_full_returns_false(self, rig, ring):
        _, ctxs, _ = rig
        for i in range(4):
            assert ring.try_push(ctxs[0], b"x")
        assert not ring.try_push(ctxs[0], b"y")
        assert ring.is_full(ctxs[0])

    def test_wraparound(self, rig, ring):
        _, ctxs, _ = rig
        for round_ in range(10):
            assert ring.try_push(ctxs[0], bytes([round_]))
            assert ring.try_pop(ctxs[1]) == bytes([round_])

    def test_oversized_message_rejected(self, rig, ring):
        _, ctxs, _ = rig
        with pytest.raises(Exception):
            ring.try_push(ctxs[0], b"z" * 1000)

    def test_corrupt_slot_length_is_refused(self, rig, ring):
        """A length field over the slot capacity is never read past the slot."""
        _, ctxs, _ = rig
        ring.try_push(ctxs[0], b"fine")
        ctxs[0].store(ring._slot(0) + 8, (257).to_bytes(4, "little"), bypass_cache=True)  # capacity is 256
        with pytest.raises(RingError, match="over the slot capacity"):
            ring.try_pop(ctxs[1])

    def test_consumer_clock_after_producer(self, rig, ring):
        _, ctxs, _ = rig
        ctxs[0].advance(7e5)
        ring.try_push(ctxs[0], b"late")
        ring.try_pop(ctxs[1])
        assert ctxs[1].now() >= 7e5

    def test_peek_len(self, rig, ring):
        _, ctxs, _ = rig
        assert ring.peek_len(ctxs[1]) is None
        ring.try_push(ctxs[0], b"12345")
        assert ring.peek_len(ctxs[1]) == 5
        assert ring.size(ctxs[1]) == 1  # peek does not consume


@settings(max_examples=40, deadline=None)
@given(messages=st.lists(st.binary(min_size=0, max_size=64), max_size=30))
def test_ring_delivers_exactly_in_order(messages):
    machine = RackMachine(RackConfig(n_nodes=2, global_mem_size=1 << 22))
    c0, c1 = machine.context(0), machine.context(1)
    ring = SpscRing(machine.global_base, capacity=8, payload_capacity=64).format(c0)
    received = []
    pending = list(messages)
    while pending or ring.size(c0):
        while pending and ring.try_push(c0, pending[0]):
            pending.pop(0)
        msg = ring.try_pop(c1)
        if msg is not None:
            received.append(msg)
    assert received == list(messages)


class TestSharedRadixTree:
    @pytest.fixture
    def tree(self, rig, heap):
        _, ctxs, arena = rig
        return SharedRadixTree(arena.take(8, align=8), heap).format(ctxs[0])

    def test_insert_lookup_across_nodes(self, rig, tree):
        _, ctxs, _ = rig
        tree.insert(ctxs[0], 0x123456, 99)
        assert tree.lookup(ctxs[3], 0x123456) == 99

    def test_missing_key(self, rig, tree):
        _, ctxs, _ = rig
        assert tree.lookup(ctxs[0], 42) is None

    def test_overwrite_and_remove(self, rig, tree):
        _, ctxs, _ = rig
        tree.insert(ctxs[0], 7, 1)
        tree.insert(ctxs[1], 7, 2)
        assert tree.lookup(ctxs[2], 7) == 2
        assert tree.remove(ctxs[3], 7) == 2
        assert tree.lookup(ctxs[0], 7) is None
        assert tree.remove(ctxs[0], 7) is None

    def test_insert_if_absent(self, rig, tree):
        _, ctxs, _ = rig
        assert tree.insert_if_absent(ctxs[0], 5, 10) == 10
        assert tree.insert_if_absent(ctxs[1], 5, 20) == 10

    def test_update_cas(self, rig, tree):
        _, ctxs, _ = rig
        tree.insert(ctxs[0], 9, 1)
        assert tree.update(ctxs[1], 9, 1, 2)
        assert not tree.update(ctxs[2], 9, 1, 3)
        assert tree.lookup(ctxs[3], 9) == 2

    def test_zero_value_rejected(self, rig, tree):
        _, ctxs, _ = rig
        with pytest.raises(Exception):
            tree.insert(ctxs[0], 1, 0)

    def test_key_range_enforced(self, rig, tree):
        _, ctxs, _ = rig
        with pytest.raises(Exception):
            tree.insert(ctxs[0], 1 << 60, 1)

    def test_items_enumerates_all(self, rig, tree):
        _, ctxs, _ = rig
        inserted = {(k * 7919) & 0xFFFF_FFFF: k + 1 for k in range(20)}
        for key, value in inserted.items():
            tree.insert(ctxs[0], key, value)
        assert dict(tree.items(ctxs[1])) == inserted


@settings(max_examples=20, deadline=None)
@given(
    pairs=st.dictionaries(
        st.integers(min_value=0, max_value=(1 << 48) - 1),
        st.integers(min_value=1, max_value=2**63),
        max_size=30,
    )
)
def test_radix_tree_matches_model_dict(pairs):
    machine = RackMachine(RackConfig(n_nodes=2, global_mem_size=1 << 25))
    c0, c1 = machine.context(0), machine.context(1)
    arena = Arena(machine.global_base, machine.global_size)
    heap = SharedHeap(arena.take(1 << 24), 1 << 24).format(c0)
    tree = SharedRadixTree(arena.take(8, align=8), heap).format(c0)
    for key, value in pairs.items():
        tree.insert(c0, key, value)
    for key, value in pairs.items():
        assert tree.lookup(c1, key) == value
    assert dict(tree.items(c1)) == pairs
