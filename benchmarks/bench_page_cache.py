"""E4 — §3.4 ablation: shared vs private page cache.

N nodes read the same file set.  The shared cache holds one copy per
rack (capacity win) and serves every node's first read from memory once
any node loaded it (latency win); the per-node baseline duplicates
pages and always misses on a node's first touch.
"""

from repro.bench import Table, build_rig
from repro.core.fs import FlacFS, PAGE_SIZE, PrivateCacheFS
from repro.flacdk.arena import Arena

N_FILES = 4
PAGES_PER_FILE = 8
FILE_BYTES = PAGES_PER_FILE * PAGE_SIZE


def run_shared(n_nodes):
    rig = build_rig(n_nodes=n_nodes, topology="single_switch" if n_nodes > 2 else "dual_direct")
    fs = rig.kernel.fs
    ctxs = [rig.machine.context(i) for i in range(n_nodes)]
    writer = ctxs[0]
    for f in range(N_FILES):
        fd = fs.open(writer, f"/shared{f}", create=True)
        fs.write(writer, fd, 0, b"%d" % f * FILE_BYTES)
        fs.fsync(writer)
    rig.align()  # readers start after the writer finished (wall order)
    loads_before = fs.page_cache.stats.loads_from_device
    read_ns = []
    for ctx in ctxs[1:]:
        t0 = ctx.now()
        for f in range(N_FILES):
            fd = fs.open(ctx, f"/shared{f}")
            fs.read(ctx, fd, 0, FILE_BYTES)
        read_ns.append(ctx.now() - t0)
    return {
        "footprint": fs.cache_footprint_bytes(ctxs[0]),
        "device_loads": fs.page_cache.stats.loads_from_device - loads_before,
        "mean_read_ns": sum(read_ns) / max(1, len(read_ns)),
        "hit_rate": fs.page_cache.stats.hit_rate(),
    }


def run_private(n_nodes):
    rig = build_rig(n_nodes=n_nodes, topology="single_switch" if n_nodes > 2 else "dual_direct")
    pfs = PrivateCacheFS()
    ctxs = [rig.machine.context(i) for i in range(n_nodes)]
    writer = ctxs[0]
    for f in range(N_FILES):
        pfs.create(writer, f"/shared{f}")
        pfs.write(writer, f"/shared{f}", 0, b"%d" % f * FILE_BYTES)
    rig.align()
    reads_before = pfs.device.reads
    read_ns = []
    for ctx in ctxs[1:]:
        t0 = ctx.now()
        for f in range(N_FILES):
            pfs.read(ctx, f"/shared{f}", 0, FILE_BYTES)
        read_ns.append(ctx.now() - t0)
    return {
        "footprint": pfs.cache_footprint_bytes(),
        "device_loads": pfs.device.reads - reads_before,
        "mean_read_ns": sum(read_ns) / max(1, len(read_ns)),
        "hit_rate": pfs.hits / max(1, pfs.hits + pfs.misses),
    }


def run_all():
    return {n: (run_shared(n), run_private(n)) for n in (2, 4, 8)}


def test_shared_vs_private_page_cache(emit):
    results = run_all()
    table = Table(
        "E4 — page cache: shared (FlacFS) vs per-node private",
        ["nodes", "cache", "rack footprint (KiB)", "device loads", "reader latency (us)"],
    )
    for n, (shared, private) in results.items():
        table.add_row(n, "shared", shared["footprint"] // 1024, shared["device_loads"],
                      shared["mean_read_ns"] / 1000)
        table.add_row(n, "private", private["footprint"] // 1024, private["device_loads"],
                      private["mean_read_ns"] / 1000)
    notes = []
    for n, (shared, private) in results.items():
        notes.append(
            f"{n} nodes: shared cache uses {private['footprint'] / shared['footprint']:.1f}x "
            f"less memory and readers are {private['mean_read_ns'] / shared['mean_read_ns']:.1f}x faster"
        )
    emit("E4_page_cache", table.render() + "\n" + "\n".join(notes))
    for n, (shared, private) in results.items():
        assert shared["footprint"] < private["footprint"]
        assert shared["device_loads"] == 0  # other nodes never touch the disk
        assert private["device_loads"] > 0
        assert shared["mean_read_ns"] < private["mean_read_ns"]


def test_footprint_scales_with_nodes_only_for_private():
    """Shared footprint is flat in node count; private grows linearly."""
    shared = {n: run_shared(n)["footprint"] for n in (2, 8)}
    private = {n: run_private(n)["footprint"] for n in (2, 8)}
    assert shared[8] == shared[2]
    assert private[8] > private[2] * 3
