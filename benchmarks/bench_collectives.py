"""E12 — §3.4 customer scenario: HPC collectives over shared memory.

Broadcast and allreduce across 4 ranks (2 per node), FlacOS shared
memory vs the cluster-standard TCP algorithms (binomial tree, ring).
The structural claim: collectives over shared memory move each byte at
most twice through the fabric (publish + read) regardless of rank
count, while network collectives retransmit the payload per tree edge /
ring hop.
"""

import numpy as np
from repro.apps.collectives import SharedMemoryCollectives, TcpCollectives
from repro.bench import Table, build_rig
from repro.net import TcpNetwork

PAYLOAD_SIZES = (4096, 65536, 262144)
N_RANKS = 4


def _ranks(rig):
    return [rig.machine.context(i % 2) for i in range(N_RANKS)]


def run_broadcasts():
    results = {}
    for size in PAYLOAD_SIZES:
        rig = build_rig()
        coll = SharedMemoryCollectives(
            rig.kernel.ipc.buffers, rig.kernel.arena.take(64, align=8)
        ).format(rig.c0)
        ranks = _ranks(rig)
        rig.align()
        shm = coll.broadcast(ranks[0], ranks, b"w" * size)

        rig2 = build_rig()
        ranks2 = _ranks(rig2)
        rig2.align()
        tcp = TcpCollectives(TcpNetwork()).broadcast(0, ranks2, b"w" * size)
        results[size] = (shm, tcp)
    return results


def run_allreduces():
    results = {}
    for size in PAYLOAD_SIZES:
        vectors = {i: np.ones(size // 8) * (i + 1) for i in range(N_RANKS)}
        rig = build_rig()
        coll = SharedMemoryCollectives(
            rig.kernel.ipc.buffers, rig.kernel.arena.take(64, align=8)
        ).format(rig.c0)
        ranks = _ranks(rig)
        rig.align()
        shm_result, shm = coll.allreduce_sum(ranks, vectors)

        rig2 = build_rig()
        ranks2 = _ranks(rig2)
        rig2.align()
        tcp_result, tcp = TcpCollectives(TcpNetwork()).allreduce_sum(ranks2, vectors)
        np.testing.assert_allclose(shm_result, tcp_result)
        results[size] = (shm, tcp)
    return results


def test_broadcast(emit):
    results = run_broadcasts()
    table = Table(
        "E12a — broadcast to 4 ranks (2 per node)",
        ["payload", "strategy", "makespan (us)", "wire bytes"],
    )
    for size, (shm, tcp) in results.items():
        table.add_row(f"{size >> 10} KiB", "flacos", shm.makespan_ns / 1000, shm.bytes_over_wire)
        table.add_row(f"{size >> 10} KiB", "tcp tree", tcp.makespan_ns / 1000, tcp.bytes_over_wire)
    gains = {s: t.makespan_ns / f.makespan_ns for s, (f, t) in results.items()}
    emit(
        "E12a_broadcast",
        table.render()
        + "\n"
        + "\n".join(f"{s >> 10} KiB: flacos {g:.1f}x faster" for s, g in gains.items()),
    )
    for size, (shm, tcp) in results.items():
        assert shm.bytes_over_wire == 0
        if size >= 65536:
            assert shm.makespan_ns < tcp.makespan_ns
    assert gains[262144] > gains[4096]  # the gap widens with payload


def test_allreduce(emit):
    results = run_allreduces()
    table = Table(
        "E12b — allreduce (sum) across 4 ranks",
        ["vector", "strategy", "makespan (us)", "wire bytes"],
    )
    for size, (shm, tcp) in results.items():
        table.add_row(f"{size >> 10} KiB", "flacos", shm.makespan_ns / 1000, shm.bytes_over_wire)
        table.add_row(f"{size >> 10} KiB", "tcp ring", tcp.makespan_ns / 1000, tcp.bytes_over_wire)
    emit(
        "E12b_allreduce",
        table.render(),
    )
    for size, (shm, tcp) in results.items():
        assert shm.bytes_over_wire == 0
        if size >= 65536:
            assert shm.makespan_ns < tcp.makespan_ns
