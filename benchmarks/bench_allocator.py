"""E9 — §3.2 ablation: allocator, hotness layout, relocation/tiering.

1. shared-heap alloc/free cost from a growing number of nodes (the
   lock-free free lists keep it flat-ish);
2. hotness-aware packing: lines touched by a hot-object trace, packed
   vs address-ordered (the [26, 40] optimisation);
3. tiering: access latency of a hot object before/after promotion from
   global to node-local memory.
"""

from repro.bench import Table, build_rig
from repro.flacdk.alloc import (
    HandleTable,
    HotColdPacker,
    MemoryTierer,
    ObjectInfo,
    Relocator,
    SharedHeap,
    address_order_plan,
    expected_lines_touched,
)

ALLOCS = 100


def run_alloc_scaling():
    costs = {}
    for n_nodes in (1, 2, 4, 8):
        rig = build_rig(
            n_nodes=max(2, n_nodes),
            topology="single_switch" if n_nodes > 2 else "dual_direct",
        )
        ctxs = [rig.machine.context(i) for i in range(n_nodes)]
        heap = SharedHeap(rig.kernel.arena.take(1 << 22), 1 << 22).format(ctxs[0])
        rig.align()
        t0 = max(c.now() for c in ctxs)
        addrs = []
        for i in range(ALLOCS):
            ctx = ctxs[i % n_nodes]
            addrs.append((ctx, heap.alloc(ctx, 64 + (i % 5) * 100)))
        for ctx, addr in addrs:
            heap.free(ctx, addr)
        costs[n_nodes] = (max(c.now() for c in ctxs) - t0) / (2 * ALLOCS)
    return costs


def run_packing():
    objects = [
        ObjectInfo(i, size=16, hotness=10.0 if i % 7 == 0 else 0.0) for i in range(70)
    ]
    hot_trace = [i for i in range(70) if i % 7 == 0] * 5
    packer = HotColdPacker()
    packed = packer.pack(objects)
    naive = address_order_plan(objects)
    return (
        expected_lines_touched(packed, hot_trace, objects),
        expected_lines_touched(naive, hot_trace, objects),
    )


def run_tiering():
    rig = build_rig()
    arena = rig.kernel.arena
    cold_heap = SharedHeap(arena.take(1 << 21), 1 << 21).format(rig.c0)
    # "hot heap" carved from node 0's local memory
    local_base = rig.machine.local_base(0)
    hot_heap = SharedHeap(local_base, 1 << 21).format(rig.c0)
    table = HandleTable(arena.take(8 * 16, align=8), 15).format(rig.c0)
    tierer = MemoryTierer(Relocator(table), hot_heap, cold_heap, hot_threshold=1.0)

    obj = cold_heap.alloc(rig.c0, 256)
    rig.c0.store(obj, b"H" * 256, bypass_cache=True)
    handle = table.create(rig.c0, obj)
    tierer.track(handle, 256, hot=False)

    def access_cost():
        rig.c0.invalidate(table.resolve(rig.c0, handle), 256)
        t0 = rig.c0.now()
        addr = table.resolve(rig.c0, handle)
        rig.c0.load(addr, 256)
        return rig.c0.now() - t0

    before_ns = access_cost()
    for _ in range(5):
        tierer.record_access(handle)
    moves = tierer.rebalance(rig.c0)
    after_ns = access_cost()
    return before_ns, after_ns, moves


def test_alloc_scaling(emit):
    costs = run_alloc_scaling()
    table = Table("E9a — shared heap alloc+free wall cost (us/op)", ["nodes", "cost (us)"])
    for n, ns in costs.items():
        table.add_row(n, ns / 1000)
    emit("E9a_alloc_scaling", table.render())
    # lock-free heap: growing the node count must not blow up per-op cost
    assert costs[8] < costs[1] * 3


def test_hot_cold_packing(emit):
    packed_lines, naive_lines = run_packing()
    emit(
        "E9b_packing",
        f"hot trace touches {packed_lines} lines packed vs {naive_lines} address-ordered "
        f"({naive_lines / packed_lines:.1f}x fewer global-memory pulls)",
    )
    assert packed_lines * 2 <= naive_lines


def test_tiering_promotion(emit):
    before_ns, after_ns, moves = run_tiering()
    emit(
        "E9c_tiering",
        f"256 B hot-object access: {before_ns / 1000:.2f} us in global memory -> "
        f"{after_ns / 1000:.2f} us after promotion to local DRAM "
        f"({before_ns / after_ns:.1f}x; moves: {moves})",
    )
    assert moves["promoted"] == 1
    assert after_ns < before_ns


def test_fragmentation_reuse(emit):
    """Free lists bound fragmentation: churn reuses blocks, the bump
    cursor stays put."""
    rig = build_rig()
    heap = SharedHeap(rig.kernel.arena.take(1 << 21), 1 << 21).format(rig.c0)
    addrs = [heap.alloc(rig.c0, 200) for _ in range(50)]
    for addr in addrs:
        heap.free(rig.c0, addr)
    bumped_after_first_wave = heap.bytes_bumped(rig.c0)
    for _ in range(3):
        addrs = [heap.alloc(rig.c0, 200) for _ in range(50)]
        for addr in addrs:
            heap.free(rig.c0, addr)
    emit(
        "E9d_fragmentation",
        f"150 further allocations reused freed blocks: bump cursor stayed at "
        f"{heap.bytes_bumped(rig.c0)} B (was {bumped_after_first_wave} B after wave 1)",
    )
    assert heap.bytes_bumped(rig.c0) == bumped_after_first_wave
