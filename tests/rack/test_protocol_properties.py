"""Property tests for the substrate's core contract.

If software follows the publish/refresh discipline (flush after write,
invalidate before reading another node's data), then any interleaving
of writers across nodes behaves like a single shared memory.  If it
skips either step, staleness is possible.  These properties are what
every FlacDK protocol is built on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rack import RackConfig, RackMachine


def _machine(n_nodes=3):
    return RackMachine(
        RackConfig(n_nodes=n_nodes, topology="single_switch", global_mem_size=1 << 22)
    )


_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # node
        st.integers(min_value=0, max_value=60),  # slot (64B-aligned regions)
        st.binary(min_size=1, max_size=64),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=40, deadline=None)
@given(ops=_ops)
def test_publish_refresh_discipline_is_coherent(ops):
    """write+flush / invalidate+read across arbitrary node interleavings
    always observes the last write to each slot."""
    machine = _machine()
    ctxs = [machine.context(i) for i in range(3)]
    base = machine.global_base
    shadow = {}
    for node, slot, data in ops:
        addr = base + slot * 64
        ctx = ctxs[node]
        ctx.store(addr, data)
        ctx.flush(addr, len(data))
        shadow[slot] = (data, len(data))
        # a random *other* node reads it back with the discipline
        reader = ctxs[(node + 1) % 3]
        reader.invalidate(addr, len(data))
        assert reader.load(addr, len(data)) == data
    # final audit from every node
    for slot, (data, length) in shadow.items():
        for ctx in ctxs:
            ctx.invalidate(base + slot * 64, length)
            assert ctx.load(base + slot * 64, length) == data


@settings(max_examples=40, deadline=None)
@given(
    deltas=st.lists(
        st.tuples(st.integers(0, 2), st.integers(-1000, 1000)), min_size=1, max_size=50
    )
)
def test_atomic_counter_is_exact_across_nodes(deltas):
    """fetch_add from any interleaving of nodes sums exactly (mod 2^64)."""
    machine = _machine()
    ctxs = [machine.context(i) for i in range(3)]
    addr = machine.global_base
    ctxs[0].atomic_store(addr, 0)
    for node, delta in deltas:
        ctxs[node].fetch_add(addr, delta)
    expected = sum(d for _, d in deltas) & (2**64 - 1)
    assert ctxs[2].atomic_load(addr) == expected


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 5), st.integers(1, 2**32)),
        min_size=1,
        max_size=40,
    )
)
def test_cas_swap_history_is_linearizable(ops):
    """A CAS-only register: each successful CAS observes exactly the
    previous successful write — the register is a single timeline."""
    machine = _machine()
    ctxs = [machine.context(i) for i in range(3)]
    addr = machine.global_base + 64
    ctxs[0].atomic_store(addr, 0)
    last = 0
    for node, _, new in ops:
        swapped, observed = ctxs[node].cas(addr, last, new)
        assert swapped and observed == last
        last = new
    assert ctxs[1].atomic_load(addr) == last


@settings(max_examples=30, deadline=None)
@given(
    pairs=st.dictionaries(
        st.integers(min_value=0, max_value=4000), st.integers(1, 2**60), min_size=1, max_size=40
    ),
    start=st.integers(min_value=0, max_value=4000),
    count=st.integers(min_value=1, max_value=600),
)
def test_radix_gang_lookup_matches_pointwise(pairs, start, count):
    from repro.flacdk.alloc import SharedHeap
    from repro.flacdk.arena import Arena
    from repro.flacdk.structures import SharedRadixTree

    machine = _machine(2)
    c0 = machine.context(0)
    arena = Arena(machine.global_base, machine.global_size)
    heap = SharedHeap(arena.take(1 << 21), 1 << 21).format(c0)
    tree = SharedRadixTree(arena.take(8, align=8), heap).format(c0)
    for key, value in pairs.items():
        tree.insert(c0, key, value)
    gang = tree.lookup_range(machine.context(1), start, count)
    pointwise = [tree.lookup(machine.context(1), start + i) for i in range(count)]
    assert gang == pointwise


@settings(max_examples=30, deadline=None)
@given(
    pairs=st.dictionaries(
        st.integers(min_value=0, max_value=2000), st.integers(1, 2**60), min_size=1, max_size=30
    ),
)
def test_radix_slot_range_create_then_gang_read(pairs):
    from repro.flacdk.alloc import SharedHeap
    from repro.flacdk.arena import Arena
    from repro.flacdk.structures import SharedRadixTree

    machine = _machine(2)
    c0, c1 = machine.context(0), machine.context(1)
    arena = Arena(machine.global_base, machine.global_size)
    heap = SharedHeap(arena.take(1 << 21), 1 << 21).format(c0)
    tree = SharedRadixTree(arena.take(8, align=8), heap).format(c0)
    lo, hi = min(pairs), max(pairs)
    slots = tree.slot_range(c0, lo, hi - lo + 1, create=True)
    for key, value in pairs.items():
        c0.atomic_store(slots[key - lo], value)
    for key, value in pairs.items():
        assert tree.lookup(c1, key) == value
    gang = tree.lookup_range(c1, lo, hi - lo + 1)
    for key, value in pairs.items():
        assert gang[key - lo] == value
