"""E8 — §3.3 ablation: the shared heterogeneous page table.

Measures the memory system's characteristic costs:

1. translation paths — TLB hit vs shared-table walk vs full fault;
2. rack-wide address-space sharing — install once, touch from every
   node, no page-table replication;
3. TLB shootdown cost as the node count grows;
4. page deduplication capacity savings across address spaces.
"""

from repro.bench import Table, build_rig
from repro.core.memory import PAGE_SIZE, Placement

N_PAGES = 16


def run_translation_paths():
    rig = build_rig()
    aspace = rig.kernel.memory.create_address_space(rig.c0)
    va = aspace.mmap(rig.c0, PAGE_SIZE)
    aspace.write(rig.c0, va, b"x")  # fault the page in
    aspace.read(rig.c0, va, 8)  # warm the TLB (the fault path doesn't fill it)
    rig.align()

    t0 = rig.c0.now()
    aspace.read(rig.c0, va, 8)  # TLB hit
    tlb_hit_ns = rig.c0.now() - t0

    rig.kernel.memory.tlbs[0].invalidate_asid(rig.c0, aspace.asid)
    t0 = rig.c0.now()
    aspace.read(rig.c0, va, 8)  # shared-table walk, then refill
    walk_ns = rig.c0.now() - t0

    va2 = aspace.mmap(rig.c0, PAGE_SIZE)
    t0 = rig.c0.now()
    aspace.write(rig.c0, va2, b"y")  # full demand fault
    fault_ns = rig.c0.now() - t0
    return tlb_hit_ns, walk_ns, fault_ns


def run_rack_sharing():
    """One address space used from both nodes: writes on node 0 become
    readable on node 1 with no table replication, only cache maintenance."""
    rig = build_rig()
    memsys = rig.kernel.memory
    aspace = memsys.create_address_space(rig.c0)
    memsys.install(rig.c1, aspace)
    va = aspace.mmap(rig.c0, N_PAGES * PAGE_SIZE, placement=Placement.GLOBAL)
    payload = b"rackwide" * 512  # one page
    for p in range(N_PAGES):
        aspace.write(rig.c0, va + p * PAGE_SIZE, payload)
    aspace.publish(rig.c0, va, N_PAGES * PAGE_SIZE)
    rig.align()
    t0 = rig.c1.now()
    aspace.refresh(rig.c1, va, N_PAGES * PAGE_SIZE)
    for p in range(N_PAGES):
        assert aspace.read(rig.c1, va + p * PAGE_SIZE, 8) == b"rackwide"
    remote_ns = rig.c1.now() - t0
    return remote_ns / N_PAGES, aspace.fault_count


def run_shootdown_scaling():
    costs = {}
    for n_nodes in (2, 4, 8):
        rig = build_rig(
            n_nodes=n_nodes, topology="single_switch" if n_nodes > 2 else "dual_direct"
        )
        memsys = rig.kernel.memory
        ctxs = [rig.machine.context(i) for i in range(n_nodes)]
        aspace = memsys.create_address_space(ctxs[0])
        for ctx in ctxs[1:]:
            memsys.install(ctx, aspace)
        va = aspace.mmap(ctxs[0], PAGE_SIZE)
        aspace.write(ctxs[0], va, b"mapped")
        aspace.publish(ctxs[0], va, 6)
        for ctx in ctxs[1:]:
            aspace.refresh(ctx, va, 6)
            aspace.read(ctx, va, 6)  # everyone caches the translation
        rig.align()
        t0 = ctxs[0].now()
        memsys.unmap_range(ctxs[0], aspace, va, PAGE_SIZE, responders=ctxs[1:])
        costs[n_nodes] = ctxs[0].now() - t0
        for ctx in ctxs:
            assert memsys.tlbs[ctx.node_id].lookup(ctx, aspace.asid, va) is None
    return costs


def run_dedup():
    rig = build_rig()
    memsys = rig.kernel.memory
    spaces = []
    for i in range(4):
        ctx = rig.machine.context(i % 2)
        aspace = memsys.create_address_space(ctx)
        va = aspace.mmap(ctx, 2 * PAGE_SIZE)
        aspace.write(ctx, va, b"COMMON-RUNTIME-PAGE" * 215)  # identical everywhere
        aspace.write(ctx, va + PAGE_SIZE, b"unique-%d" % i * 100)  # distinct
        aspace.publish(ctx, va, 2 * PAGE_SIZE)
        spaces.append((aspace, va, ctx))
    used_before = memsys.frames_in_use(rig.c0)["global"]
    merged = memsys.dedup_global_frames(rig.c0)
    used_after = memsys.frames_in_use(rig.c0)["global"]
    # CoW still protects the shared frame
    aspace, va, ctx = spaces[0]
    aspace.write(ctx, va, b"DIVERGED")
    others_intact = all(
        s.read(c, v, 6) == b"COMMON" for s, v, c in spaces[1:]
    )
    return used_before, used_after, merged, others_intact


def test_translation_paths(emit):
    tlb_hit, walk, fault = run_translation_paths()
    table = Table(
        "E8a — translation path costs (8 B access)",
        ["path", "cost (us)"],
    )
    table.add_row("per-node TLB hit", tlb_hit / 1000)
    table.add_row("shared page-table walk (global memory)", walk / 1000)
    table.add_row("demand page fault", fault / 1000)
    emit(
        "E8a_translation",
        table.render()
        + f"\nthe TLB hides the shared table's global latency: walk/hit = {walk / tlb_hit:.0f}x",
    )
    assert tlb_hit < walk < fault


def test_rack_wide_sharing(emit):
    per_page_ns, faults = run_rack_sharing()
    emit(
        "E8b_rack_sharing",
        f"remote node reads a shared address space at {per_page_ns / 1000:.2f} us/page "
        f"after publish/refresh; total demand faults: {faults} "
        f"(no second fault per page on the remote node — the table is shared)",
    )
    assert faults == N_PAGES  # only the writer faulted; the reader reused PTEs


def test_shootdown_scaling(emit):
    costs = run_shootdown_scaling()
    table = Table("E8c — unmap + rack-wide TLB shootdown", ["nodes", "cost (us)"])
    for n, ns in costs.items():
        table.add_row(n, ns / 1000)
    emit("E8c_shootdown", table.render())
    assert costs[8] > costs[2]  # more responders, more doorbell traffic


def test_dedup_savings(emit):
    used_before, used_after, merged, others_intact = run_dedup()
    emit(
        "E8d_dedup",
        f"4 address spaces, 8 frames: dedup merged {merged} duplicates, "
        f"global frames {used_before} -> {used_after}; CoW kept sharers intact: {others_intact}",
    )
    assert merged == 3  # four identical pages become one
    assert used_after == used_before - 3
    assert others_intact
