"""The reference rack: the obviously-correct model ``RackMachine`` must equal.

No numpy, no TLB, no runs, no memo, no fast path.  Every node cache is an
ordered dict of ``[bytes, dirty]`` lines in LRU order that fills and writes
back one line at a time; every clock is one float; every charge is written
out here from ``LatencyModel`` (hops and switches from
``Interconnect.path_to_gmem``); every bulk call is the loop of single ops.
The hardware contract is the paper's (§2.1) as ``RackMachine`` documents it:

* an access lies in one region or raises ``OutOfRangeError``; a node touches
  shared memory and its own local memory only (``ProtectionError``); a dead
  node raises ``NodeCrashedError`` before anything happens;
* a cached op counts its hits and misses in the cache stats when it
  completes; a whole-line store to an absent line installs it unfetched and
  counts (and is charged) as a hit;
* a poisoned byte raises ``UncorrectableMemoryError`` from a line fetch, a
  bypass load or an atomic, after that op's charge; a write-back, a bypass
  store and ``repair_write`` clear the poison they overwrite;
* an atomic drops the issuer's copy of its line, dirty or not, unwritten;
* ``flush_all`` charges DRAM-global rates whatever the pool's media;
* with a ``FaultModel`` armed, every backing touch — a line fetch, a bypass
  burst, an atomic's word; never a write-back or ``repair_write`` — rolls the
  rack's own ``random.Random(seed)``: UE first, then CE, a global region's
  rates scaled per hop and switch of the node's path (§2.2).  A UE poisons
  its victim byte, or the victim's 64-byte line; a fetch rolls before its
  op's charge, a burst or an atomic after it;
* the fault log holds each CE, UE, crash (at the node's clock) and link
  change (at the rack's latest clock); a node whose port is severed raises
  ``InterconnectError`` from any charge on its path to global memory, after
  whatever the op did before that charge (an atomic's charge is a constant);
* observed, each op kind records once (DESIGN §3): an access touches the
  atlas after the gate (an atomic after its charge) and counts once it
  completes, a cached one before its charge; a batch counts every op.
"""

import random
from collections import OrderedDict

from repro.rack import (
    GLOBAL_BASE,
    LOCAL_STRIDE,
    NodeCrashedError,
    OutOfRangeError,
    ProtectionError,
    UncorrectableMemoryError,
)
from repro.rack.interconnect import node_vertex
from repro.rack.topology import build as build_fabric
from repro.telemetry.atlas import Atlas


class RefRegion:
    """One mapped range and the bytes of the device behind it."""

    def __init__(self, base, size, owner, pmem):
        self.base, self.size, self.owner, self.pmem = base, size, owner, pmem
        self.bytes = bytearray(size)
        self.poison = set()


class RefNode:
    def __init__(self):
        self.alive = True
        self.clock = 0.0
        self.lines = OrderedDict()  # line base -> [bytearray, dirty], LRU first
        self.stats = dict(hits=0, misses=0, writebacks=0, invalidations=0, evictions=0)


class ReferenceRack:
    def __init__(self, config):
        self.lat = config.latency
        self.line = config.cache_line_size
        self.capacity = config.cache_lines
        self.fabric = build_fabric(config.topology, config.n_nodes)
        self.nodes = [RefNode() for _ in range(config.n_nodes)]
        self.regions = [RefRegion(i * LOCAL_STRIDE, config.local_mem_size, i, False)
                        for i in range(config.n_nodes)]
        self.regions.append(RefRegion(GLOBAL_BASE, config.global_mem_size, None,
                                      config.global_kind == "pmem"))
        self.faults = None  # the armed FaultModel
        self.rng = random.Random(config.seed)
        self.log = []  # (kind, time_ns, addr, node_id, detail)
        self.counters = self.atlas = None  # the record, once observed

    def observe(self):
        self.counters, self.atlas = {}, Atlas()

    def poison(self, addr, size):
        region = self._region(addr, size)
        region.poison.update(range(addr - region.base, addr - region.base + size))

    # -- where bytes live ----------------------------------------------------

    def _region(self, addr, size):
        for region in self.regions:
            if region.base <= addr and addr + max(size, 1) <= region.base + region.size:
                return region
        raise OutOfRangeError(f"{addr:#x} (+{size}) is not inside one region")

    def _live(self, node_id):
        node = self.nodes[node_id]
        if not node.alive:
            raise NodeCrashedError(node_id)
        return node

    def _gate(self, node_id, addr, size):
        node = self._live(node_id)
        region = self._region(addr, size)
        if region.owner is not None and region.owner != node_id:
            raise ProtectionError(f"node {node_id} may not touch node {region.owner}'s memory")
        return node, region

    def _check_poison(self, region, offset, size, node_id):
        if any(o in region.poison for o in range(offset, offset + size)):
            self._count(node_id, "fault.ue_raised")
            raise UncorrectableMemoryError(region.base + offset, node_id)

    # -- faults and the record -----------------------------------------------

    def _roll(self, node_id, region, offset, size):
        """One backing touch under the armed model."""
        model = self.faults
        if model is None:
            return
        if region.owner is None:
            ce, ue = model.global_ce_rate, model.global_ue_rate
        else:
            ce, ue = model.local_ce_rate, model.local_ue_rate
        if not (ce or ue):
            return
        if region.owner is None:
            cost = self.fabric.path_to_gmem(node_id)
            scale = model.per_hop_multiplier ** (cost.hops + cost.switches)
            ce, ue = ce * scale, ue * scale
        rng, now = self.rng, self.nodes[node_id].clock
        if ue > 0 and rng.random() < ue:
            victim = offset + rng.randrange(size)
            start, n = victim, 1
            if rng.random() < model.line_corruption_ratio:  # its line, inside the device
                n = min(64, len(region.bytes))
                start = max(0, min(victim & -64, len(region.bytes) - n))
            region.poison.update(range(start, start + n))
            self._log("ue", now, region.base + victim, node_id, f"poisoned {n}B")
        elif ce > 0 and rng.random() < ce:
            self._log("ce", now, region.base + offset + rng.randrange(size), node_id, "ecc corrected")

    def _log(self, kind, now, addr=None, node_id=None, detail=""):
        self.log.append((kind, now, addr, node_id, detail))
        self._count(-1 if node_id is None else node_id, f"fault.{kind}", sub="reliability")

    def _count(self, node_id, name, n=1, sub="rack.machine"):
        if self.counters is not None and n:
            key = (node_id, sub, name)
            self.counters[key] = self.counters.get(key, 0.0) + n

    def _touch(self, addr, size):
        if self.atlas is not None:
            self.atlas.touch(addr, size)

    # -- charges, written out ------------------------------------------------

    def _first(self, node_id, region):
        lat = self.lat
        if region.owner is None:
            cost = self.fabric.path_to_gmem(node_id)
            ns = lat.global_base_ns + cost.hops * lat.hop_ns + cost.switches * lat.switch_ns
        else:
            ns = lat.local_dram_ns
        if region.pmem:
            ns += lat.pmem_extra_ns
        return ns

    def _rest(self, region):
        lat = self.lat
        if region.pmem:
            return self.line / lat.pmem_bw_bytes_per_ns
        return self.line / (lat.global_bw_bytes_per_ns if region.owner is None
                            else lat.local_bw_bytes_per_ns)

    def _charge_burst(self, node, node_id, region, size):
        n_lines = max(1, -(-size // self.line))
        node.clock += self._first(node_id, region) + (n_lines - 1) * self._rest(region)

    def _charge_writeback(self, node, node_id, region, lines):
        rest = (lines - 1) * self._rest(region)
        node.clock += self._first(node_id, region) + rest + lines * self.lat.writeback_line_ns

    def _finish_cached(self, node, node_id, region, hits, misses):
        node.stats["hits"] += hits
        node.stats["misses"] += misses
        self._count(node_id, "cache.hit", hits)
        self._count(node_id, "cache.miss", misses)
        if region.owner is None:
            self._count(node_id, "cache.remote_fetch", misses)
        ns = hits * self.lat.cache_hit_ns
        if misses:
            ns += self._first(node_id, region)
            ns += (misses - 1) * self._rest(region)
            ns += misses * self.lat.cache_miss_overhead_ns
        node.clock += ns

    # -- one line at a time --------------------------------------------------

    def _spanned(self, addr, size):
        return range(addr & -self.line, addr + size, self.line) if size > 0 else ()

    def _fetch(self, node_id, base):
        region = self._region(base, self.line)
        offset = base - region.base
        self._roll(node_id, region, offset, self.line)
        self._check_poison(region, offset, self.line, node_id)
        return [bytearray(region.bytes[offset : offset + self.line]), False]

    def _write_back(self, base, data):
        region = self._region(base, len(data))
        offset = base - region.base
        region.poison.difference_update(range(offset, offset + len(data)))
        region.bytes[offset : offset + len(data)] = data

    def _install(self, node, base, line):
        while len(node.lines) >= self.capacity:
            victim, (data, dirty) = node.lines.popitem(last=False)
            if dirty:
                self._write_back(victim, data)
                node.stats["writebacks"] += 1
            node.stats["evictions"] += 1
        node.lines[base] = line

    def _clean(self, node, addr, size):
        written = 0
        for base in self._spanned(addr, size):
            line = node.lines.get(base)
            if line is not None and line[1]:
                self._write_back(base, line[0])
                line[1] = False
                written += 1
        node.stats["writebacks"] += written
        return written

    def _drop(self, node, addr, size):
        dropped = sum(node.lines.pop(base, None) is not None for base in self._spanned(addr, size))
        node.stats["invalidations"] += dropped
        return dropped

    # -- the data path -------------------------------------------------------

    def load(self, node_id, addr, size, *, bypass_cache=False):
        node, region = self._gate(node_id, addr, size)
        self._touch(addr, size)
        if bypass_cache:
            self._charge_burst(node, node_id, region, size)
            self._roll(node_id, region, addr - region.base, size)
            self._check_poison(region, addr - region.base, size, node_id)
            self._count(node_id, "bypass.load")
            return bytes(region.bytes[addr - region.base : addr - region.base + size])
        out, hits, misses = bytearray(), 0, 0
        for base in self._spanned(addr, size):
            line = node.lines.get(base)
            if line is None:
                line = self._fetch(node_id, base)
                self._install(node, base, line)
                misses += 1
            else:
                node.lines.move_to_end(base)
                hits += 1
            out += line[0][max(addr, base) - base : min(addr + size, base + self.line) - base]
        self._finish_cached(node, node_id, region, hits, misses)
        return bytes(out)

    def store(self, node_id, addr, data, *, bypass_cache=False):
        size = len(data)
        node, region = self._gate(node_id, addr, size)
        self._touch(addr, size)
        if bypass_cache:
            self._charge_burst(node, node_id, region, size)
            self._roll(node_id, region, addr - region.base, size)
            self._write_back(addr, data)
            self._count(node_id, "bypass.store")
            return
        hits = misses = pos = 0
        for base in self._spanned(addr, size):
            lo, hi = max(addr, base) - base, min(addr + size, base + self.line) - base
            chunk, pos = bytes(data[pos : pos + hi - lo]), pos + hi - lo
            line = node.lines.get(base)
            if line is not None:
                node.lines.move_to_end(base)
                hits += 1
            elif hi - lo == self.line:
                self._install(node, base, [bytearray(chunk), True])
                hits += 1
                continue
            else:
                line = self._fetch(node_id, base)
                self._install(node, base, line)
                misses += 1
            line[0][lo:hi] = chunk
            line[1] = True
        self._finish_cached(node, node_id, region, hits, misses)

    # -- atomics -------------------------------------------------------------

    def _atomic(self, node_id, addr):
        if addr % 8:
            raise ValueError(f"atomic at {addr:#x} not 8-byte aligned")
        node, region = self._gate(node_id, addr, 8)
        node.clock += self.lat.global_atomic_ns if region.owner is None else self.lat.local_atomic_ns
        self._count(node_id, "atomic.global" if region.owner is None else "atomic.local")
        self._touch(addr, 8)
        if node.lines.pop(addr & -self.line, None) is not None:
            node.stats["invalidations"] += 1
        offset = addr - region.base
        self._roll(node_id, region, offset, 8)
        self._check_poison(region, offset, 8, node_id)
        word = slice(offset, offset + 8)
        return region.bytes, word, int.from_bytes(region.bytes[word], "little")

    def atomic_load(self, node_id, addr):
        return self._atomic(node_id, addr)[2]

    def atomic_store(self, node_id, addr, value):
        mem, word, _ = self._atomic(node_id, addr)
        mem[word] = (value % 2**64).to_bytes(8, "little")

    def atomic_swap(self, node_id, addr, new):
        mem, word, old = self._atomic(node_id, addr)
        mem[word] = (new % 2**64).to_bytes(8, "little")
        return old

    def atomic_fetch_add(self, node_id, addr, delta):
        mem, word, old = self._atomic(node_id, addr)
        mem[word] = ((old + delta) % 2**64).to_bytes(8, "little")
        return old

    def atomic_cas(self, node_id, addr, expected, new):
        mem, word, old = self._atomic(node_id, addr)
        if old == expected:
            mem[word] = (new % 2**64).to_bytes(8, "little")
        return old == expected, old

    # -- bulk calls: the loop ------------------------------------------------

    def load_many(self, node_id, addrs, size, *, bypass_cache=False, concat=False):
        parts = [self.load(node_id, a, size, bypass_cache=bypass_cache) for a in addrs]
        return b"".join(parts) if concat else parts

    def store_many(self, node_id, base, size, idx, table):
        """Slots ``idx`` of the ``size``-byte slots at ``base``: op ``i``
        writes row ``idx[i]`` of ``table`` into slot ``idx[i]``, bypassing."""
        for k in idx:
            self.store(node_id, base + k * size, table[k * size : (k + 1) * size], bypass_cache=True)

    def copy(self, node_id, dst, src, size, *, bypass_cache=False):
        if size > 0:
            data = self.load(node_id, src, size, bypass_cache=bypass_cache)
            self.store(node_id, dst, data, bypass_cache=bypass_cache)

    def fill(self, node_id, addr, size, value, *, bypass_cache=False):
        if size > 0:
            self.store(node_id, addr, bytes([value & 0xFF]) * size, bypass_cache=bypass_cache)

    def atomic_load_many(self, node_id, addrs):
        return [self.atomic_load(node_id, a) for a in addrs]

    def atomic_store_many(self, node_id, addrs, value):
        for a in addrs:
            self.atomic_store(node_id, a, value)

    def atomic_fetch_add_many(self, node_id, addrs, deltas=1):
        if isinstance(deltas, int):
            deltas = [deltas] * len(addrs)
        elif len(deltas) != len(addrs):
            raise ValueError("one delta per address")
        return [self.atomic_fetch_add(node_id, a, d) for a, d in zip(addrs, deltas)]

    def atomic_cas_many(self, node_id, addrs, expected, new):
        if not len(expected) == len(new) == len(addrs):
            raise ValueError("one expected and one new value per address")
        return [self.atomic_cas(node_id, a, e, v) for a, e, v in zip(addrs, expected, new)]

    # -- maintenance ---------------------------------------------------------

    def flush(self, node_id, addr, size):
        node, region = self._gate(node_id, addr, size)
        written = self._clean(node, addr, size)
        if written:
            self._count(node_id, "cache.writeback_lines", written)
            self._charge_writeback(node, node_id, region, written)
        return written

    def invalidate(self, node_id, addr, size):
        node = self._live(node_id)
        dropped = self._drop(node, addr, size)
        node.clock += dropped * self.lat.invalidate_line_ns
        return dropped

    def flush_invalidate(self, node_id, addr, size):
        node, region = self._gate(node_id, addr, size)
        written, dropped = self._clean(node, addr, size), self._drop(node, addr, size)
        if written:
            self._count(node_id, "cache.writeback_lines", written)
            self._charge_writeback(node, node_id, region, written)
        node.clock += dropped * self.lat.invalidate_line_ns
        return written, dropped

    def flush_all(self, node_id):
        node = self._live(node_id)
        written = 0
        for base, line in node.lines.items():
            if line[1]:
                self._write_back(base, line[0])
                line[1] = False
                written += 1
        node.stats["writebacks"] += written
        if written:
            lat, cost = self.lat, self.fabric.path_to_gmem(node_id)
            first = lat.global_base_ns + cost.hops * lat.hop_ns + cost.switches * lat.switch_ns
            rest = (written - 1) * (self.line / lat.global_bw_bytes_per_ns)
            node.clock += first + rest + written * lat.writeback_line_ns
        return written

    def fence(self, node_id):
        self._live(node_id).clock += self.lat.fence_ns

    def repair_write(self, node_id, addr, data):
        node, region = self._gate(node_id, addr, len(data))
        self._charge_burst(node, node_id, region, len(data))
        self._write_back(addr, data)
        self._drop(node, addr, len(data))

    # -- node lifecycle ------------------------------------------------------

    def crash_node(self, node_id):
        node = self.nodes[node_id]
        node.alive = False
        node.stats["invalidations"] += len(node.lines)
        node.lines.clear()
        self._log("node_crash", node.clock, node_id=node_id)

    def restart_node(self, node_id):
        latest = max(n.clock for n in self.nodes)
        node = self.nodes[node_id]
        node.alive = True
        node.stats["invalidations"] += len(node.lines)
        node.lines.clear()
        node.clock = max(node.clock, latest)

    def sever_node_link(self, node_id, up=False):
        """Take down (or restore) the first link cabled to the node's port."""
        port = node_vertex(node_id)
        neighbor = self.fabric.graph.neighbors(port)[0]
        now = max(n.clock for n in self.nodes)
        self.fabric.set_link_state(port, neighbor, up, now_ns=now)
        self._log("link_up" if up else "link_down", now, detail=f"{port}<->{neighbor}")
