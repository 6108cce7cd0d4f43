"""``RackMachine`` against the reference rack, step by step.

A Hypothesis state machine drives one random sequence of operations through
a :class:`RackMachine` and through :class:`~tests.reference.rack.ReferenceRack`
(2-3 nodes, caches of 1, 2 or 8 lines, DRAM or PMEM pool, direct or switched
fabric, round, awkward or decimal latencies): cached and bypass loads and stores over
one to three unaligned lines, the five atomics at every width on local and
global memory, flush / invalidate / flush_invalidate / flush_all / fence, the
bulk calls on a held slot window and by address vector (repeats included),
the batched atomics (duplicates included), bursts of cached ops over a few
hot lines, poison and ``repair_write``, crash and restart, clocks reset to
zero (where a charge's last bit still shows), and regions added mid-run —
one of them adjacent to the pool, so a span can cross from one region into
the next.  After every step both
must have returned the same value or raised the same exception type, and
agree on every device's bytes and poison, every node's resident lines (LRU
order, dirty flags, bytes), its cache stats and its clock, compared with
``==``.  Armed fault rates stay out: their RNG order is pinned elsewhere.
"""

import dataclasses

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

import repro.rack.machine as machine_module
from repro.rack import GLOBAL_BASE, LOCAL_STRIDE, LatencyModel, MemoryKind, PhysicalMemory, RackConfig, Region

from .rack import ReferenceRack

LINE, LOCAL, POOL, EXTRA = 64, 512, 512, 256
#: Bases a region may be added at: right after the pool, and past a gap.
LATE_BASES = (GLOBAL_BASE + POOL, GLOBAL_BASE + 2 * POOL + 4096)
LATENCIES = (
    LatencyModel(),
    LatencyModel(cache_hit_ns=0.3, cache_miss_overhead_ns=0.7, local_dram_ns=90.1,
                 global_base_ns=250.3, hop_ns=70.7, switch_ns=40.1, global_atomic_ns=450.9,
                 local_atomic_ns=20.3, writeback_line_ns=2.2, invalidate_line_ns=1.1,
                 fence_ns=8.3, local_bw_bytes_per_ns=25.3, global_bw_bytes_per_ns=23.9,
                 pmem_extra_ns=120.7, pmem_bw_bytes_per_ns=7.7),
    # decimal fractions of one magnitude: reordering a sum changes its last bit
    LatencyModel(cache_hit_ns=0.2, cache_miss_overhead_ns=0.1, local_dram_ns=0.7,
                 global_base_ns=0.3, hop_ns=0.1, switch_ns=0.2, global_atomic_ns=0.3,
                 local_atomic_ns=0.1, writeback_line_ns=0.3, invalidate_line_ns=0.1,
                 fence_ns=0.7, local_bw_bytes_per_ns=100.0, global_bw_bytes_per_ns=100.0,
                 pmem_extra_ns=0.3, pmem_bw_bytes_per_ns=100.0),
)

nodes = st.sampled_from([0, 0, 1, 2])  # node 0 most: its cache sees the interplay
#: (where, offset into it, 0 = straddle one of its ends); small offsets and
#: reused addresses keep a few lines hot so that caches of every size see
#: hits, write-backs and atomics on resident lines
places = st.tuples(st.integers(0, 13), st.one_of(st.integers(0, 2 * LINE), st.integers(0, 4095)),
                   st.integers(0, 7))
spans = st.one_of(st.integers(1, 16), st.integers(1, 3 * LINE))
widths = st.sampled_from([1, 2, 4, 8])
words = st.integers(0, (1 << 64) - 1)
slots = st.lists(st.integers(0, 7), max_size=6)
bypasses = st.sampled_from([False, False, False, True])
#: cached (is a store, offset into a three-line window, size) steps
bursts = st.lists(st.tuples(st.booleans(), st.integers(0, 3 * LINE - 1), spans),
                  min_size=1, max_size=8)


def _outcome(call):
    try:
        return "returned", call()
    except Exception as error:  # the type is the observable
        return "raised", type(error)


class RackVsReference(RuleBasedStateMachine):
    @initialize(n_nodes=st.sampled_from([2, 3]), cache_lines=st.sampled_from([1, 2, 2, 8, 8]),
                kind=st.sampled_from(["dram", "pmem"]),
                topology=st.sampled_from(["dual_direct", "single_switch"]),
                latency=st.sampled_from(LATENCIES + LATENCIES[-1:]))
    def build(self, n_nodes, cache_lines, kind, topology, latency):
        config = RackConfig(n_nodes=n_nodes, cache_lines=cache_lines, cache_line_size=LINE,
                            local_mem_size=LOCAL, global_mem_size=POOL, global_kind=kind,
                            topology=topology, latency=latency)
        self.m = machine_module.RackMachine(config)
        self.ref = ReferenceRack(config)
        self.windows = []  # (machine SlotWindow, base, slot size)
        self.recent = []
        self.step = 0

    # -- helpers -------------------------------------------------------------

    def _node(self, node):
        return node % len(self.ref.nodes)

    def _addr(self, node, place, align=1):
        """An address in the pool (4 in 14), the node's own memory (3), another
        node's (1), where a region may be added (2; mapped or not yet), or one
        of the last few addresses used (4)."""
        pick, offset, edge = place
        if pick >= 10 and self.recent:
            addr = self.recent[pick % len(self.recent)] // align * align
        else:
            if pick < 4 or pick >= 10:
                base, size = GLOBAL_BASE, POOL
            elif pick < 8:
                base, size = (node + (pick == 7)) % len(self.ref.nodes) * LOCAL_STRIDE, LOCAL
            else:
                base, size = LATE_BASES[pick - 8], EXTRA
            if edge == 0:  # around either end: spans leave the region
                addr = base + offset % (size + 4 * LINE) - 2 * LINE
            else:
                addr = base + (offset % size) // align * align
        self.recent = [addr] + self.recent[:3]
        return addr

    def _payload(self, size):
        self.step += 1
        return bytes((self.step * 31 + i) % 251 for i in range(size))

    def _both(self, on_machine, on_ref):
        got, want = _outcome(on_machine), _outcome(on_ref)
        assert got == want, (got, want)

    # -- single ops ----------------------------------------------------------

    @rule(node=nodes, place=places, size=spans, bypass=bypasses)
    def load(self, node, place, size, bypass):
        node = self._node(node)
        addr = self._addr(node, place)
        self._both(lambda: self.m.load(node, addr, size, bypass_cache=bypass),
                   lambda: self.ref.load(node, addr, size, bypass_cache=bypass))

    @rule(node=nodes, place=places, size=spans, bypass=bypasses)
    def store(self, node, place, size, bypass):
        node = self._node(node)
        addr, data = self._addr(node, place), self._payload(size)
        self._both(lambda: self.m.store(node, addr, data, bypass_cache=bypass),
                   lambda: self.ref.store(node, addr, data, bypass_cache=bypass))

    @rule(node=nodes, place=places, width=widths, misaligned=st.integers(0, 7),
          op=st.sampled_from(["atomic_load", "atomic_store", "atomic_swap",
                              "atomic_fetch_add", "atomic_cas"]),
          a=words, b=words)
    def atomic(self, node, place, width, misaligned, op, a, b):
        node = self._node(node)
        addr = self._addr(node, place, 8) + (misaligned == 7)
        # a CAS expecting 0 swaps on untouched memory; a random expectation mostly fails
        args = {"atomic_load": (), "atomic_cas": (a if b % 2 else 0, b)}.get(op, (a,))
        self._both(lambda: getattr(self.m, op)(node, addr, *args, width=width),
                   lambda: getattr(self.ref, op)(node, addr, *args, width=width))

    @rule(node=nodes, place=places, size=spans,
          op=st.sampled_from(["flush", "invalidate", "flush_invalidate"]))
    def maintain(self, node, place, size, op):
        node = self._node(node)
        addr = self._addr(node, place)
        self._both(lambda: getattr(self.m, op)(node, addr, size),
                   lambda: getattr(self.ref, op)(node, addr, size))

    @rule(node=nodes, place=places, burst=bursts,
          then=st.sampled_from(["flush", "flush_invalidate", "invalidate", "atomic_load",
                                "atomic_fetch_add", "flush_all", "load"]))
    def burst(self, node, place, burst, then):
        """Cached loads and stores over three lines (hits on lines that are not
        the most recent, evictions from a small cache), then one op on them."""
        node = self._node(node)
        base = self._addr(node, place)
        ops = [("store", base + at, self._payload(n)) if write else ("load", base + at, n)
               for write, at, n in burst]
        ops.append({"flush_all": (then,), "atomic_load": (then, base // 8 * 8),
                    "atomic_fetch_add": (then, base // 8 * 8, 1)}.get(then, (then, base, 3 * LINE)))
        for op, *args in ops:
            self._both(lambda: getattr(self.m, op)(node, *args),
                       lambda: getattr(self.ref, op)(node, *args))

    @rule(node=nodes, op=st.sampled_from(["flush_all", "fence"]))
    def whole_node(self, node, op):
        node = self._node(node)
        self._both(lambda: getattr(self.m, op)(node), lambda: getattr(self.ref, op)(node))

    # -- bulk calls ----------------------------------------------------------

    @rule(node=nodes, place=places, slot=st.sampled_from([8, 24, 64]), idx=slots,
          bypass=st.booleans(), concat=st.booleans(), store=st.booleans(), packed=st.booleans())
    def by_address(self, node, place, slot, idx, bypass, concat, store, packed):
        node = self._node(node)
        base = self._addr(node, place, 8)
        addrs = [base + i * slot for i in idx]
        if store:
            data = self._payload(slot * len(addrs))
            if packed:
                kw = dict(bypass_cache=bypass, size=slot)
            else:
                data = [data[i * slot : (i + 1) * slot] for i in range(len(addrs))]
                kw = dict(bypass_cache=bypass)
            self._both(lambda: self.m.store_many(node, addrs, data, **kw),
                       lambda: self.ref.store_many(node, addrs, data, **kw))
        else:
            self._both(lambda: self.m.load_many(node, addrs, slot, bypass_cache=bypass, concat=concat),
                       lambda: self.ref.load_many(node, addrs, slot, bypass_cache=bypass, concat=concat))

    @rule(place=places, n=st.integers(1, 8), slot=st.sampled_from([8, 64]))
    def hold_window(self, place, n, slot):
        base = self._addr(0, place, 8)
        self.windows.append((machine_module.SlotWindow(self.m.address_map, base, n, slot), base, slot))

    @precondition(lambda self: self.windows)
    @rule(node=nodes, pick=st.integers(0, 15), idx=slots, store=st.booleans(),
          same_size=st.booleans(), concat=st.booleans())
    def by_window(self, node, pick, idx, store, same_size, concat):
        node = self._node(node)
        window, base, slot = self.windows[pick % len(self.windows)]
        idx = [i % window.n for i in idx]
        addrs = [base + i * slot for i in idx]
        if store:
            data = self._payload(slot * len(idx))
            self._both(lambda: self.m.store_many(node, window.at(idx), data, bypass_cache=True, size=slot),
                       lambda: self.ref.store_many(node, addrs, data, bypass_cache=True, size=slot))
        else:
            size = slot if same_size else slot // 2
            self._both(lambda: self.m.load_many(node, window.at(idx), size, bypass_cache=True, concat=concat),
                       lambda: self.ref.load_many(node, addrs, size, bypass_cache=True, concat=concat))

    @rule(node=nodes, place=places, width=widths, idx=slots, store=st.booleans(),
          broadcast=st.booleans(), value=words)
    def atomic_many(self, node, place, width, idx, store, broadcast, value):
        node = self._node(node)
        base = self._addr(node, place, 8)
        addrs = [base + i * width for i in idx]
        if store:
            values = value if broadcast else [value + i for i in range(len(addrs))]
            self._both(lambda: self.m.atomic_store_many(node, addrs, values, width),
                       lambda: self.ref.atomic_store_many(node, addrs, values, width))
        else:
            self._both(lambda: self.m.atomic_load_many(node, addrs, width),
                       lambda: self.ref.atomic_load_many(node, addrs, width))

    # -- poison, repair, crashes, regions ------------------------------------

    @rule(pick=st.integers(0, 15), offset=st.integers(0, 4095), n=st.integers(1, 8))
    def poison(self, pick, offset, n):
        region = self.ref.regions[pick % len(self.ref.regions)]
        offset %= region.size - n
        self.m.address_map.resolve(region.base)[0].device.poison(offset, n)
        self.ref.poison(region.base + offset, n)

    @rule(node=nodes, place=places, size=spans)
    def repair(self, node, place, size):
        node = self._node(node)
        addr, data = self._addr(node, place), self._payload(size)
        self._both(lambda: self.m.repair_write(node, addr, data),
                   lambda: self.ref.repair_write(node, addr, data))

    @rule(node=nodes, place=places, size=spans, op=st.sampled_from(["load", "flush_all", "fence"]))
    def crash(self, node, place, size, op):
        """Crash a node (its cache, dirty lines included, is gone), watch one
        op of it fail, restart it (clock synced forward, cache cold)."""
        node = self._node(node)
        addr = self._addr(node, place)
        args = {"load": (addr, size)}.get(op, ())
        self._both(lambda: self.m.crash_node(node), lambda: self.ref.crash_node(node))
        self.agree()
        self._both(lambda: getattr(self.m, op)(node, *args), lambda: getattr(self.ref, op)(node, *args))
        self._both(lambda: self.m.restart_node(node), lambda: self.ref.restart_node(node))

    @rule(node=nodes)
    def reset_clock(self, node):
        """Back to zero, where a charge's last bit still shows in the clock."""
        node = self._node(node)
        self.m.nodes[node].clock.reset()
        self.ref.nodes[node].clock = 0.0

    @rule(node=nodes)
    def restart(self, node):  # a live node: its cache is dropped, its clock synced forward
        node = self._node(node)
        self._both(lambda: self.m.restart_node(node), lambda: self.ref.restart_node(node))

    @precondition(lambda self: len(self.ref.regions) < len(self.ref.nodes) + 1 + len(LATE_BASES))
    @rule(pick=st.integers(0, 1), owner=st.integers(-1, 2), pmem=st.booleans())
    def add_region(self, pick, owner, pmem):
        free = [b for b in LATE_BASES if b not in {r.base for r in self.ref.regions}]
        base = free[pick % len(free)]
        owner = None if owner < 0 else self._node(owner)
        pmem = pmem and owner is None
        kind = MemoryKind.PMEM if pmem else (MemoryKind.GLOBAL if owner is None else MemoryKind.LOCAL_DRAM)
        device = PhysicalMemory(EXTRA, kind, f"late{base:#x}")
        self.m.address_map.add_region(Region(base=base, size=EXTRA, device=device, owner=owner))
        self.ref.add_region(base, EXTRA, owner, pmem)

    # -- the comparison ------------------------------------------------------

    @invariant()
    def agree(self):
        m, ref = self.m, self.ref
        regions = {r.base: r for r in m.address_map.regions}
        assert sorted(regions) == sorted(r.base for r in ref.regions)
        for want in ref.regions:
            device = regions[want.base].device
            assert device.read(0, device.size) == bytes(want.bytes), hex(want.base)
            assert device.poisoned == want.poison, hex(want.base)
        for node_id, want in enumerate(ref.nodes):
            node = m.nodes[node_id]
            assert node.alive == want.alive
            assert [(b, bytes(line.data), line.dirty) for b, line in node.cache._lines.items()] == [
                (b, bytes(data), dirty) for b, (data, dirty) in want.lines.items()], node_id
            assert dataclasses.asdict(node.cache.stats) == want.stats, node_id
            assert node.clock.now_ns == want.clock, node_id


RackVsReference.TestCase.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
TestRackVsReference = RackVsReference.TestCase
