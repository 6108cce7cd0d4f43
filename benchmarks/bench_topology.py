"""E14 — §2.2: hops and switches raise both latency and fault surface.

The paper's double-edged observation about the fabric: every hop and
switch between a node and global memory (a) adds access latency and
(b) widens the fault surface.  This bench quantifies both on the three
built-in topologies — direct-attached, single switch, and two-tier —
using the same Redis workload for latency and the same seeded access
pattern for fault counts.
"""

import statistics

from repro.apps.redis import connect_over_flacos
from repro.bench import Table, build_rig
from repro.rack import FaultModel, RackConfig, RackMachine

TOPOLOGIES = ("dual_direct", "single_switch", "two_tier")


def run_latency(topology: str) -> float:
    rig = build_rig(n_nodes=2, topology=topology)
    client, _ = connect_over_flacos(rig.kernel.ipc, rig.c0, rig.c1)
    rig.align()
    latencies = []
    for i in range(60):
        _, ns = client.timed_request(b"SET", b"k%d" % i, b"v" * 64)
        latencies.append(ns)
    return statistics.mean(latencies)


def run_fault_surface(topology: str) -> int:
    machine = RackMachine(
        RackConfig(
            n_nodes=2,
            topology=topology,
            faults=FaultModel(global_ce_rate=0.002, per_hop_multiplier=2.0),
            seed=31,
        )
    )
    for i in range(2000):
        machine.load(0, machine.global_base + (i * 64) % 65536, 8, bypass_cache=True)
    return len(machine.faults.log)


def run_all():
    return {
        topology: (run_latency(topology), run_fault_surface(topology))
        for topology in TOPOLOGIES
    }


def test_topology_sensitivity(emit):
    results = run_all()
    table = Table(
        "E14 — fabric topology: latency AND fault surface (§2.2)",
        ["topology", "path", "Redis SET (us)", "CEs per 2000 accesses"],
    )
    paths = {
        "dual_direct": "1 hop, 0 switches",
        "single_switch": "2 hops, 1 switch",
        "two_tier": "3 hops, 2 switches",
    }
    for topology, (latency_ns, faults) in results.items():
        table.add_row(topology, paths[topology], latency_ns / 1000, faults)
    direct_lat, direct_faults = results["dual_direct"]
    deep_lat, deep_faults = results["two_tier"]
    emit(
        "E14_topology",
        table.render()
        + f"\ntwo switch levels cost {deep_lat / direct_lat:.2f}x the latency and "
        f"{deep_faults / max(1, direct_faults):.1f}x the correctable-error rate — "
        f"the paper's fault-surface argument, quantified",
    )
    # latency strictly increases with path depth
    lats = [results[t][0] for t in TOPOLOGIES]
    assert lats[0] < lats[1] < lats[2]
    # and so does the fault surface
    faults = [results[t][1] for t in TOPOLOGIES]
    assert faults[0] < faults[2]
