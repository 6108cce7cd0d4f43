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
* ``flush_all`` charges DRAM-global rates whatever the pool's media.
"""

from collections import OrderedDict

from repro.rack import (
    GLOBAL_BASE,
    LOCAL_STRIDE,
    NodeCrashedError,
    OutOfRangeError,
    ProtectionError,
    UncorrectableMemoryError,
)
from repro.rack.topology import build as build_fabric


class RefRegion:
    """One mapped range and the bytes of the device behind it."""

    def __init__(self, base, size, owner, pmem, device_size=None):
        self.base, self.size, self.owner, self.pmem = base, size, owner, pmem
        self.bytes = bytearray(device_size or size)
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

    def add_region(self, base, size, owner, pmem, device_size=None):
        self.regions.append(RefRegion(base, size, owner, pmem, device_size))

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
            raise UncorrectableMemoryError(region.base + offset, node_id)

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
        if bypass_cache:
            self._charge_burst(node, node_id, region, size)
            self._check_poison(region, addr - region.base, size, node_id)
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
        if bypass_cache:
            self._charge_burst(node, node_id, region, size)
            self._write_back(addr, data)
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

    def _atomic(self, node_id, addr, width):
        if width not in (1, 2, 4, 8):
            raise ValueError(f"atomic width {width}")
        if addr % width:
            raise ValueError(f"atomic at {addr:#x} not {width}-byte aligned")
        node, region = self._gate(node_id, addr, width)
        node.clock += self.lat.global_atomic_ns if region.owner is None else self.lat.local_atomic_ns
        if node.lines.pop(addr & -self.line, None) is not None:
            node.stats["invalidations"] += 1
        offset = addr - region.base
        self._check_poison(region, offset, width, node_id)
        word = slice(offset, offset + width)
        return region.bytes, word, int.from_bytes(region.bytes[word], "little"), (1 << 8 * width) - 1

    def atomic_load(self, node_id, addr, width=8):
        return self._atomic(node_id, addr, width)[2]

    def atomic_store(self, node_id, addr, value, width=8):
        mem, word, _, mask = self._atomic(node_id, addr, width)
        mem[word] = (value & mask).to_bytes(width, "little")

    def atomic_swap(self, node_id, addr, new, width=8):
        mem, word, old, mask = self._atomic(node_id, addr, width)
        mem[word] = (new & mask).to_bytes(width, "little")
        return old

    def atomic_fetch_add(self, node_id, addr, delta, width=8):
        mem, word, old, mask = self._atomic(node_id, addr, width)
        mem[word] = ((old + delta) & mask).to_bytes(width, "little")
        return old

    def atomic_cas(self, node_id, addr, expected, new, width=8):
        mem, word, old, mask = self._atomic(node_id, addr, width)
        if old == expected:
            mem[word] = (new & mask).to_bytes(width, "little")
        return old == expected, old

    # -- bulk calls: the loop ------------------------------------------------

    def load_many(self, node_id, addrs, size, *, bypass_cache=False, concat=False):
        parts = [self.load(node_id, a, size, bypass_cache=bypass_cache) for a in addrs]
        return b"".join(parts) if concat else parts

    def store_many(self, node_id, addrs, data, *, bypass_cache=False, size=None):
        if size is not None:
            if size <= 0 or len(data) != len(addrs) * size:
                raise ValueError("packed buffer does not match the addresses")
            data = [bytes(data[i * size : (i + 1) * size]) for i in range(len(addrs))]
        elif len(data) != len(addrs):
            raise ValueError("one payload per address")
        for a, d in zip(addrs, data):
            self.store(node_id, a, d, bypass_cache=bypass_cache)

    def atomic_load_many(self, node_id, addrs, width=8):
        return [self.atomic_load(node_id, a, width) for a in addrs]

    def atomic_store_many(self, node_id, addrs, values, width=8):
        if not addrs:
            return
        if isinstance(values, int):
            values = [values] * len(addrs)
        elif len(values) != len(addrs):
            raise ValueError("one value per address")
        for a, v in zip(addrs, values):
            self.atomic_store(node_id, a, v, width)

    # -- maintenance ---------------------------------------------------------

    def flush(self, node_id, addr, size):
        node, region = self._gate(node_id, addr, size)
        written = self._clean(node, addr, size)
        if written:
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

    def restart_node(self, node_id):
        latest = max(n.clock for n in self.nodes)
        node = self.nodes[node_id]
        node.alive = True
        node.stats["invalidations"] += len(node.lines)
        node.lines.clear()
        node.clock = max(node.clock, latest)
