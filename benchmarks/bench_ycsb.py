"""E13 — YCSB workload mixes over FlacOS IPC vs kernel TCP.

Figure 4 used fixed-size SET/GET; this bench widens the workload axis:
the standard YCSB mixes (A update-heavy, B read-mostly, C read-only,
D read-latest, F read-modify-write) with zipfian keys, on the same
two-node client/server split.  The claim under test: the FlacOS latency
reduction holds across operation mixes, not just the two points the
paper measured.
"""

import statistics

from repro.apps.redis import connect_over_flacos, connect_over_tcp
from repro.bench import Table, build_rig
from repro.net import TcpNetwork
from repro.workloads.ycsb import WORKLOADS, YcsbConfig, YcsbWorkload

OPS = 80
CONFIG = YcsbConfig(n_keys=120, value_size=256, seed=9)


def run_workload(letter: str, transport: str) -> float:
    """Mean per-command latency (ns) of one workload on one transport."""
    rig = build_rig()
    if transport == "flacos":
        client, _ = connect_over_flacos(rig.kernel.ipc, rig.c0, rig.c1)
    else:
        client, _ = connect_over_tcp(TcpNetwork(), rig.c0, rig.c1)
    workload = YcsbWorkload(letter, CONFIG)
    for command in workload.load_phase():
        client.request(*command)
    rig.align()
    latencies = []
    for command in workload.run_phase(OPS):
        _, ns = client.timed_request(*command)
        latencies.append(ns)
    return statistics.mean(latencies)


def run_all():
    return {
        letter: (run_workload(letter, "tcp"), run_workload(letter, "flacos"))
        for letter in WORKLOADS
    }


def test_ycsb_mixes(emit):
    results = run_all()
    table = Table(
        "E13 — YCSB mixes, mean command latency (zipfian keys, 256 B values)",
        ["workload", "TCP (us)", "FlacOS (us)", "reduction"],
    )
    descriptions = {
        "A": "A (50/50 update)",
        "B": "B (95/5 read)",
        "C": "C (read only)",
        "D": "D (read latest)",
        "F": "F (read-modify-write)",
    }
    for letter, (tcp_ns, flacos_ns) in results.items():
        table.add_row(
            descriptions[letter], tcp_ns / 1000, flacos_ns / 1000,
            f"{tcp_ns / flacos_ns:.2f}x",
        )
    ratios = [tcp / flacos for tcp, flacos in results.values()]
    emit(
        "E13_ycsb",
        table.render()
        + f"\nreduction across all five mixes: {min(ratios):.2f}x – {max(ratios):.2f}x "
        f"(Figure 4's band was 1.75-2.4x at two points)",
    )
    # the paper's latency reduction holds across every mix
    for letter, (tcp_ns, flacos_ns) in results.items():
        assert tcp_ns / flacos_ns > 1.4, f"workload {letter} fell out of band"
