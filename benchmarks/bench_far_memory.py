"""E11 — §3.3: rack memory retires swapping (and compression).

The paper claims rack-scale shared memory "naturally realizes memory
disaggregation", making swap and compression tiers unnecessary.  This
bench gives one application a working set larger than its local-DRAM
budget and touches it three ways:

* **swap to SSD** — classic overflow to a swap device;
* **zswap + SSD** — a compressed in-memory tier in front of the device;
* **FlacOS global memory** — the overflow pages simply *live* in
  interconnect-attached memory; every access is a plain load.

The figure of merit is per-touch latency under a uniformly random
access pattern that defeats the resident-set LRU.
"""

import numpy as np
from repro.bench import Table, build_rig
from repro.core.memory import PAGE_SIZE, Placement
from repro.core.memory.swap import SwapBackedMemory

WORKING_SET_PAGES = 96
RESIDENT_BUDGET = 32  # local DRAM holds a third of the working set
TOUCHES = 300


def _access_pattern():
    rng = np.random.default_rng(42)
    return [int(v) for v in rng.integers(0, WORKING_SET_PAGES, size=TOUCHES)]


def run_swap(zswap_pages: int):
    rig = build_rig()
    memory = SwapBackedMemory(RESIDENT_BUDGET, zswap_pages=zswap_pages)
    pattern = _access_pattern()
    # populate the full working set once
    for vpn in range(WORKING_SET_PAGES):
        memory.touch(rig.c0, vpn, write=True, fill=b"%d" % vpn)
    rig.align()
    t0 = rig.c0.now()
    for vpn in pattern:
        page = memory.touch(rig.c0, vpn)
        assert page.startswith(b"%d" % vpn)
    return (rig.c0.now() - t0) / TOUCHES, memory.stats


def run_flacos_global():
    rig = build_rig()
    aspace = rig.kernel.memory.create_address_space(rig.c0)
    va = aspace.mmap(rig.c0, WORKING_SET_PAGES * PAGE_SIZE, placement=Placement.GLOBAL)
    for vpn in range(WORKING_SET_PAGES):
        aspace.write(rig.c0, va + vpn * PAGE_SIZE, b"%d" % vpn)
    pattern = _access_pattern()
    rig.align()
    t0 = rig.c0.now()
    for vpn in pattern:
        data = aspace.read(rig.c0, va + vpn * PAGE_SIZE, 8)
        assert data.startswith(b"%d" % vpn)
    return (rig.c0.now() - t0) / TOUCHES, aspace.fault_count


def run_all():
    swap_ns, swap_stats = run_swap(zswap_pages=0)
    zswap_ns, zswap_stats = run_swap(zswap_pages=24)
    global_ns, faults = run_flacos_global()
    return swap_ns, swap_stats, zswap_ns, zswap_stats, global_ns, faults


def test_far_memory_tiers(emit):
    swap_ns, swap_stats, zswap_ns, zswap_stats, global_ns, faults = run_all()
    table = Table(
        "E11 — 3x-over-budget working set, random touches (per-touch cost)",
        ["memory service", "cost (us)", "major faults", "device I/O"],
    )
    table.add_row(
        "swap to SSD", swap_ns / 1000, swap_stats.major_faults,
        swap_stats.swap_ins + swap_stats.swap_outs,
    )
    table.add_row(
        "zswap + SSD", zswap_ns / 1000, zswap_stats.major_faults,
        zswap_stats.swap_ins + zswap_stats.swap_outs,
    )
    table.add_row("FlacOS global memory", global_ns / 1000, 0, 0)
    emit(
        "E11_far_memory",
        table.render()
        + f"\nglobal memory beats swap {swap_ns / global_ns:.0f}x and zswap "
        f"{zswap_ns / global_ns:.0f}x per touch — the services §3.3 retires",
    )
    # the paper's ordering: plain global memory << compressed tier << swap
    assert global_ns < zswap_ns < swap_ns
    # and the win is drastic, not incremental
    assert swap_ns > 10 * global_ns
    assert faults == WORKING_SET_PAGES  # faulted once each, never again
