"""E1 — Figure 4: Redis request latency, FlacOS IPC vs kernel TCP.

Reproduces the paper's headline experiment: MiniRedis server on node 1,
client on node 0, SET and GET at two request sizes, FlacOS shared-memory
IPC against the direct-Ethernet TCP baseline.  The paper reports a
1.75-2.4x latency reduction; the bench prints the same series and
asserts the measured ratios fall in (a tolerance band around) it.
"""

import statistics

from repro.apps.redis import connect_over_flacos, connect_over_tcp
from repro.bench import Table, build_rig, check_ratio
from repro.net import TcpNetwork
from repro.workloads import ValueGenerator

SIZES = (64, 4096)
REQUESTS = 120
PAPER_BAND = (1.75, 2.4)


def _run_side(kind: str, size: int):
    """Mean latency (ns) of SET and GET at one request size."""
    rig = build_rig()
    if kind == "flacos":
        client, _ = connect_over_flacos(rig.kernel.ipc, rig.c0, rig.c1)
    else:
        client, _ = connect_over_tcp(TcpNetwork(), rig.c0, rig.c1)
    values = ValueGenerator(size=size, seed=1)
    set_ns, get_ns = [], []
    for i in range(REQUESTS):
        key = b"bench:%06d" % i
        _, ns = client.timed_request(b"SET", key, values.value_for(key))
        set_ns.append(ns)
        _, ns = client.timed_request(b"GET", key)
        get_ns.append(ns)
    return statistics.mean(set_ns), statistics.mean(get_ns)


def run_figure4():
    rows = []
    for size in SIZES:
        flacos_set, flacos_get = _run_side("flacos", size)
        tcp_set, tcp_get = _run_side("tcp", size)
        rows.append((size, "SET", tcp_set, flacos_set, tcp_set / flacos_set))
        rows.append((size, "GET", tcp_get, flacos_get, tcp_get / flacos_get))
    return rows


def test_fig4_redis_latency(emit):
    rows = run_figure4()
    table = Table(
        "Figure 4 — Redis request latency (client node 0 -> server node 1)",
        ["size (B)", "op", "networking (us)", "FlacOS (us)", "reduction"],
    )
    messages = []
    all_ok = True
    for size, op, tcp_ns, flacos_ns, ratio in rows:
        table.add_row(size, op, tcp_ns / 1000, flacos_ns / 1000, f"{ratio:.2f}x")
        ok, message = check_ratio(f"{op}@{size}B", ratio, *PAPER_BAND)
        messages.append(message)
        all_ok = all_ok and ok
    emit("E1_fig4_redis_latency", table.render() + "\n" + "\n".join(messages))
    assert all_ok, "a Figure 4 ratio fell outside the paper band; see emitted table"


def run_pipelined(kind: str, batch: int = 100):
    rig = build_rig()
    if kind == "flacos":
        client, _ = connect_over_flacos(rig.kernel.ipc, rig.c0, rig.c1)
    else:
        client, _ = connect_over_tcp(TcpNetwork(), rig.c0, rig.c1)
    rig.align()
    commands = [(b"SET", b"p%06d" % i, b"v" * 64) for i in range(batch)]
    replies, ns = client.timed_pipeline(commands)
    assert replies == ["OK"] * batch
    return ns / batch


def test_fig4_pipelined_throughput(emit):
    """Beyond the figure: pipelining is the usual counter-argument to
    per-request latency comparisons ("just batch!").  Batching amortises
    the network's round trips but not its per-byte copies and per-packet
    processing — FlacOS still wins, by less."""
    flacos_ns, tcp_ns = run_pipelined("flacos"), run_pipelined("tcp")
    emit(
        "E1b_fig4_pipelined",
        f"pipelined (batch 100, 64 B SETs): FlacOS {flacos_ns / 1000:.2f} us/op, "
        f"TCP {tcp_ns / 1000:.2f} us/op -> {tcp_ns / flacos_ns:.2f}x "
        f"(unpipelined Figure 4 point was ~2.4x: batching helps the "
        f"baseline but cannot remove its copy + stack tax)",
    )
    assert flacos_ns < tcp_ns
