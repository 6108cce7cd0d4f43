#!/usr/bin/env python
"""MiniRedis on the rack: the Figure 4 experiment, interactively.

Runs a RESP-speaking key-value server on node 1 and a client on node 0,
first over FlacOS shared-memory IPC and then over the simulated kernel
TCP stack, and prints the per-request latencies side by side.

Run:  python examples/redis_rack.py
      python examples/redis_rack.py --telemetry run.json   # then:
      python -m repro.telemetry dashboard run.json
      python -m repro.telemetry top-pages run.json
"""

import argparse
import statistics

from repro import telemetry
from repro.apps.redis import connect_over_flacos, connect_over_tcp
from repro.bench import build_rig
from repro.net import TcpNetwork
from repro.telemetry.atlas import enable_atlas
from repro.workloads import KeyGenerator, ValueGenerator


def run(transport: str, value_size: int, requests: int = 60):
    rig = build_rig()
    if transport == "flacos":
        client, _ = connect_over_flacos(rig.kernel.ipc, rig.c0, rig.c1)
    else:
        client, _ = connect_over_tcp(TcpNetwork(), rig.c0, rig.c1)
    keys = KeyGenerator(requests, seed=7)
    values = ValueGenerator(size=value_size, seed=7)
    set_lat, get_lat = [], []
    for i in range(requests):
        key = keys.key(i)
        _, ns = client.timed_request(b"SET", key, values.value_for(key))
        set_lat.append(ns / 1000)
        _, ns = client.timed_request(b"GET", key)
        get_lat.append(ns / 1000)
    return statistics.mean(set_lat), statistics.mean(get_lat)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        help="record metrics + spans and export a telemetry run JSON to PATH "
        "(view with: python -m repro.telemetry dashboard PATH)",
    )
    opts = parser.parse_args()
    if opts.telemetry:
        telemetry.enable(tracing=True)

    print(f"{'size':>6} {'op':<4} {'TCP (us)':>10} {'FlacOS (us)':>12} {'reduction':>10}")
    for size in (64, 4096):
        flacos_set, flacos_get = run("flacos", size)
        tcp_set, tcp_get = run("tcp", size)
        for op, tcp_v, flacos_v in (("SET", tcp_set, flacos_set), ("GET", tcp_get, flacos_get)):
            print(
                f"{size:>6} {op:<4} {tcp_v:>10.2f} {flacos_v:>12.2f} "
                f"{tcp_v / flacos_v:>9.2f}x"
            )
    print("\npaper (Figure 4): FlacOS reduces latency by 1.75-2.4x")

    # and a few commands beyond GET/SET, over FlacOS
    rig = build_rig()
    if opts.telemetry:  # the run export gains an atlas section
        enable_atlas(rig.machine)
    client, _ = connect_over_flacos(rig.kernel.ipc, rig.c0, rig.c1)
    print("\nassorted commands over FlacOS IPC:")
    print("  INCR counter ->", client.request(b"INCR", b"counter"))
    print("  INCRBY counter 41 ->", client.request(b"INCRBY", b"counter", b"41"))
    client.request(b"MSET", b"a", b"1", b"b", b"2")
    print("  MGET a b missing ->", client.request(b"MGET", b"a", b"b", b"missing"))
    print("  DBSIZE ->", client.request(b"DBSIZE"))

    if opts.telemetry:
        out = telemetry.TELEMETRY.export_json(
            opts.telemetry, meta={"example": "redis_rack"}
        )
        telemetry.disable()
        print(f"\ntelemetry run written to {out}")
        print(f"view it with: python -m repro.telemetry dashboard {out}")


if __name__ == "__main__":
    main()
