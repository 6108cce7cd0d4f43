"""``RackMachine`` against the reference rack, step by step.

A Hypothesis state machine drives one random sequence of operations through a
:class:`RackMachine` and through :class:`~tests.reference.rack.ReferenceRack`
(2-3 nodes, caches of 1, 2 or 8 lines, DRAM or PMEM pool, direct or switched
fabric, round, awkward or decimal latencies): cached and bypass loads and stores
over one to three unaligned lines, the five word atomics (aligned or not) on
local and global memory, flush / invalidate / flush_invalidate / flush_all /
fence, the bulk loads and stores on a held slot window and bulk loads by address
vector (repeats included), the batched atomics (duplicates included), bursts of
cached ops over a few hot lines, poison and ``repair_write``, crash and restart,
clocks reset to zero (where a charge's last bit still shows), and addresses no
region maps (one range right past the pool, so a span can run off its region's
end), then armed CE/UE rates, a node's fabric port severed and restored, every
op of a dead node, ``copy`` / ``fill`` / the batched read-modify-writes, held
windows over bytes already in use, poison inside a held window, batched atomics
over lines the issuer holds and a poisoned line healed by a write-back. After
every step both must have returned the same value or raised the same exception
type, and agree on every device's bytes and poison, every node's resident lines
(LRU order, dirty flags, bytes), its cache stats, its clock, the fault log and
the fault RNG's state, compared with ``==`` — and, once a step turns observation
on, on the ``rack.machine`` / ``reliability`` counters and the atlas page
sketch.
"""

import dataclasses

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

import repro.rack.machine as machine_module
from repro import telemetry
from repro.rack import GLOBAL_BASE, LOCAL_STRIDE, FaultModel, LatencyModel, OutOfRangeError, RackConfig
from repro.telemetry.atlas import enable_atlas

from .rack import ReferenceRack

LINE, LOCAL, POOL, EXTRA = 64, 512, 512, 256
#: Ranges of ``EXTRA`` bytes no region maps: right after the pool, and past a gap.
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

#: Armed rates high enough that a short run sees CEs, UEs and whole-line
#: spreads on both region kinds, with and without per-hop scaling; half the
#: draws disarm, so batches also run where they may vectorize.
MODELS = (
    FaultModel(global_ce_rate=0.3, local_ce_rate=0.2),
    FaultModel(global_ce_rate=0.2, global_ue_rate=0.02, local_ce_rate=0.1, local_ue_rate=0.02,
               line_corruption_ratio=0.5),
    FaultModel(global_ce_rate=0.1, global_ue_rate=0.02, local_ce_rate=0.3, per_hop_multiplier=1.0,
               line_corruption_ratio=1.0),
) + (FaultModel(),) * 3

nodes = st.sampled_from([0, 0, 1, 2])  # node 0 most: its cache sees the interplay
#: (where, offset into it, 0 = straddle one of its ends); small offsets and
#: reused addresses keep a few lines hot so that caches of every size see
#: hits, write-backs and atomics on resident lines
places = st.tuples(st.integers(0, 13), st.one_of(st.integers(0, 2 * LINE), st.integers(0, 4095)),
                   st.integers(0, 7))
spans = st.one_of(st.integers(1, 16), st.integers(1, 3 * LINE))
words = st.integers(0, (1 << 64) - 1)
slots = st.lists(st.integers(0, 7), max_size=6)
counts = st.integers(1, 10)  # a batch of slots i * 5 % n, i < count (DESIGN §10's repeats)
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
    observed = False  # until the observe rule runs

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
        node's (1), a range no region maps (2), or one of the last few
        addresses used (4)."""
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

    @rule(node=nodes, place=places, misaligned=st.integers(0, 7),
          op=st.sampled_from(["atomic_load", "atomic_store", "atomic_swap",
                              "atomic_fetch_add", "atomic_cas"]),
          a=words, b=words)
    def atomic(self, node, place, misaligned, op, a, b):
        node = self._node(node)
        addr = self._addr(node, place, 8) + (misaligned == 7)
        # a CAS expecting 0 swaps on untouched memory; a random expectation mostly fails
        args = {"atomic_load": (), "atomic_cas": (a if b % 2 else 0, b)}.get(op, (a,))
        self._both(lambda: getattr(self.m, op)(node, addr, *args),
                   lambda: getattr(self.ref, op)(node, addr, *args))

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
          bypass=st.booleans(), concat=st.booleans())
    def by_address(self, node, place, slot, idx, bypass, concat):
        node = self._node(node)
        base = self._addr(node, place, 8)
        addrs = [base + i * slot for i in idx]
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
        if store:  # the window's row table: op i writes row idx[i] into slot idx[i]
            table = self._payload(slot * window.n)
            self._both(lambda: self.m.store_many(node, window.at(idx), table),
                       lambda: self.ref.store_many(node, base, slot, idx, table))
        else:
            size = slot if same_size else slot // 2
            self._both(lambda: self.m.load_many(node, window.at(idx), size, bypass_cache=True, concat=concat),
                       lambda: self.ref.load_many(node, addrs, size, bypass_cache=True, concat=concat))

    @rule(node=nodes, place=places, idx=slots, store=st.booleans(), value=words)
    def atomic_many(self, node, place, idx, store, value):
        node = self._node(node)
        base = self._addr(node, place, 8)
        addrs = [base + i * 8 for i in idx]
        if store:
            self._both(lambda: self.m.atomic_store_many(node, addrs, value),
                       lambda: self.ref.atomic_store_many(node, addrs, value))
        else:
            self._both(lambda: self.m.atomic_load_many(node, addrs),
                       lambda: self.ref.atomic_load_many(node, addrs))

    # -- poison, repair, crashes ---------------------------------------------

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

    # -- armed faults, link flaps, dead nodes, the loops ----------------------

    def _same(self, node, op, *args, **kw):
        self._both(lambda: getattr(self.m, op)(node, *args, **kw), lambda: getattr(self.ref, op)(node, *args, **kw))

    @rule(model=st.sampled_from(MODELS))
    def arm(self, model):
        self.m.faults.model = self.ref.faults = model
        self.m.faults.model_changed()

    @rule(node=nodes, place=places, n=st.integers(1, 8), slot=st.sampled_from([8, 64]), count=counts)
    def flap(self, node, place, n, slot, count):
        """Take a node's fabric port down, drive it — a bypass store and load
        on a window in the pool held (and loaded once) while the port was up,
        a cached load and store of ``count`` lines, a flush, an atomic,
        ``flush_all`` — and bring the port back."""
        node = self._node(node)
        addr, size = self._addr(node, place, 8), count * LINE // 2
        self._held(GLOBAL_BASE + addr % POOL, n, slot)
        self._through(node, 1, False)
        self._same(node, "sever_node_link")
        self._through(node, count, True)
        self._through(node, count, False)
        for op, *args in (("load", addr, size), ("store", addr, self._payload(size)), ("flush", addr, size),
                          ("atomic_fetch_add", addr, 1), ("flush_all",), ("sever_node_link", True)):
            self._same(node, op, *args)

    @rule(node=nodes, place=places, wipe=st.booleans())
    def dead(self, node, place, wipe):
        """Every op of a dead node raises and changes nothing — after
        ``crash_node``, or with its cache still resident — then a restart."""
        node = self._node(node)
        addr, data = self._addr(node, place), self._payload(LINE + 9)
        word, size = addr // 8 * 8, len(data)
        if wipe:
            self._same(node, "crash_node")
        else:
            self.m.nodes[node].alive = self.ref.nodes[node].alive = False
        for op, *args in (("load", addr, size), ("store", addr, data), ("atomic_load", word),
                          ("atomic_store", word, 1), ("atomic_swap", word, 1), ("atomic_fetch_add", word, 1),
                          ("atomic_cas", word, 0, 1), ("flush", addr, size), ("invalidate", addr, size),
                          ("flush_invalidate", addr, size), ("flush_all",), ("fence",), ("repair_write", addr, data),
                          ("copy", addr, word, size), ("fill", addr, size, 7), ("load_many", [addr], size),
                          ("atomic_load_many", [word]), ("atomic_store_many", [word], 1),
                          ("atomic_fetch_add_many", [word]), ("atomic_cas_many", [word], [0], [1])):
            for kw in ({}, {"bypass_cache": True}) if op in ("load", "store", "copy", "fill") else ({},):
                self._same(node, op, *args, **kw)
        window = machine_module.SlotWindow(self.m.address_map, addr, 1, size)
        self._both(lambda: self.m.store_many(node, window.at([0]), data),
                   lambda: self.ref.store_many(node, addr, size, [0], data))
        self.agree()
        self._same(node, "restart_node")

    @rule(node=nodes, place=places, size=spans, bypass=bypasses, value=words,
          op=st.sampled_from(["copy", "fill", "atomic_fetch_add_many", "atomic_cas_many"]))
    def loops(self, node, place, size, bypass, value, op):
        """``copy`` from the last address used, ``fill``, or a batched
        read-modify-write of ``size % 10`` words (repeats chain)."""
        node = self._node(node)
        src = self.recent[0] if self.recent else GLOBAL_BASE
        addr, count = self._addr(node, place, 8), size % 10
        batch = [addr + i * 5 % 8 * 8 for i in range(count)]
        args = {"copy": (addr, src, size), "fill": (addr, size, value),
                "atomic_cas_many": (batch, [0 if i % 2 else value for i in range(count)],  # 0: untouched
                                    [value + i for i in range(count)]),
                "atomic_fetch_add_many": (batch, value if bypass else [value + i for i in range(count)]),
                }[op]
        self._same(node, op, *args, **{"bypass_cache": bypass} if op in ("copy", "fill") else {})

    # -- held windows over bytes in use, poison, resident lines --------------

    def _held(self, base, n, slot):
        self.windows.append((machine_module.SlotWindow(self.m.address_map, base, n, slot), base, slot))

    def _through(self, node, count, store, also=()):
        """``by_window`` on the last held window: slots ``i * 5 % n`` (i < count), then ``also``."""
        self.by_window(node, len(self.windows) - 1, [i * 5 for i in range(count)] + list(also), store, True, False)

    def _poison_at(self, addr, base=None, size=1):
        """Poison byte ``addr`` on both racks if ``[base, base + size)`` (default: it) is in one region."""
        try:
            region = self.ref._region(addr if base is None else base, size)
        except OutOfRangeError:  # it runs off its region
            return False
        self.m.address_map.resolve(region.base)[0].device.poison(addr - region.base, 1)
        self.ref.poison(addr, 1)
        return True

    @rule(node=nodes, pick=st.integers(0, 15), n=st.integers(1, 8), slot=st.sampled_from([8, 16, 64]),
          count=counts, store=st.booleans(), poison=st.integers(-63, 63))
    def window_in_use(self, node, pick, n, slot, count, store, poison):
        """A window over bytes already in use — a held window's, at another
        slot size and shifted by ``pick`` words, or a recent address — and
        one batch through it; with ``poison`` ≥ 0 a byte of one of its slots
        is poisoned first and the batch includes that slot."""
        node = self._node(node)
        held = [b for _, b, _ in self.windows] + self.recent
        base = held[pick % len(held)] // 8 * 8 + 8 * (pick % 3) if held else GLOBAL_BASE
        self._held(base, n, slot)
        hit = poison >= 0 and self._poison_at(base + poison % n * slot + poison % slot)
        self._through(node, count, store, [poison % n] if hit else [])

    @rule(node=nodes, place=places, count=counts, store=st.booleans(), value=words)
    def atomics_on_resident(self, node, place, count, store, value):
        """Cache a line on the issuer, then a batched atomic over distinct
        words of it: each op drops the line, as the loop does."""
        node = self._node(node)
        base = self._addr(node, place, LINE)
        addrs = [base + i * 8 for i in range(count)]
        self._same(node, "load", base, 8)
        op, *args = ("atomic_store_many", addrs, value) if store else ("atomic_load_many", addrs)
        self._same(node, op, *args)

    @rule(node=nodes, place=places, at=st.integers(0, 3 * LINE - 1))
    def heal(self, node, place, at):
        """Poison a byte of three lines, overwrite them whole through the cache
        (no fetch) and flush them: the write-back clears the poison."""
        node = self._node(node)
        base = self._addr(node, place, LINE)
        if self._poison_at(base + at, base, 3 * LINE):
            self._same(node, "store", base, self._payload(3 * LINE))
            self._same(node, "flush", base, 3 * LINE)

    # -- the record ----------------------------------------------------------

    @precondition(lambda self: not self.observed)
    @rule()
    def observe(self):
        """From here on every op kind's record is compared too (DESIGN §3)."""
        telemetry.reset()
        telemetry.enable()
        enable_atlas(self.m)
        self.ref.observe()
        self.observed = True

    def teardown(self):
        if self.observed:
            telemetry.TELEMETRY.atlas = None
            telemetry.disable()
            telemetry.reset()

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

    @invariant()
    def agree_on_faults(self):
        faults = self.m.faults
        assert [(e.kind.value, e.time_ns, e.addr, e.node_id, e.detail)
                for e in faults.log.events()] == self.ref.log
        assert faults.rng.getstate() == self.ref.rng.getstate()

    @precondition(lambda self: self.observed)
    @invariant()
    def agree_on_the_record(self):
        assert telemetry.TELEMETRY.registry.counters == self.ref.counters
        atlas, want = telemetry.TELEMETRY.atlas, self.ref.atlas
        assert atlas.hot_pages() == want.hot_pages() and atlas.pages.total == want.pages.total


RackVsReference.TestCase.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
TestRackVsReference = RackVsReference.TestCase
