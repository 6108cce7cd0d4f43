"""E7 — §4.1 case study: serverless on FlacOS.

The three pain points the paper's customers report, measured:

1. **Cold start** — startup latency by path (cold / FlacOS-shared /
   warm), i.e. the container experiment seen through the platform;
2. **Chain communication** — a 3-stage function chain hopping across
   nodes over FlacOS IPC vs TCP;
3. **Density** — sandboxes that fit a memory budget with and without
   rack-wide runtime sharing.
"""

from repro.apps.containers import (
    ContainerRuntime,
    ImageSpec,
    LayerSpec,
    Registry,
    RegistrySpec,
    RuntimeSpec,
)
from repro.apps.serverless import FunctionSpec, ServerlessPlatform
from repro.bench import Table, build_rig
from repro.net import TcpNetwork
from repro.rack import rendezvous


def _image():
    """A 64 MiB function runtime image."""
    return ImageSpec(
        name="fn-runtime:1",
        layers=[LayerSpec(digest="sha256:fn" * 16, size_bytes=1 << 26)],
    )


def _registry():
    """An in-datacenter registry (5 ms RTT), not the WAN default."""
    return Registry(RegistrySpec(rtt_ns=5e6, metadata_requests=4, bandwidth_bytes_per_ns=0.70))


def _stage_a(ctx, payload):
    return payload + b"|a"


def _stage_b(ctx, payload):
    return payload + b"|b"


def _stage_c(ctx, payload):
    return payload + b"|c"


def _platform():
    rig = build_rig()
    registry = _registry()
    registry.push(_image())
    runtime = ContainerRuntime(
        rig.kernel.fs, registry, RuntimeSpec(runtime_init_ns=5e7)
    )
    platform = ServerlessPlatform(
        rig.machine, runtime, ipc=rig.kernel.ipc, tcp=TcpNetwork()
    )
    for name, handler in (("a", _stage_a), ("b", _stage_b), ("c", _stage_c)):
        platform.deploy(
            FunctionSpec(name, "fn-runtime:1", handler, exec_ns=100_000.0)
        )
    return rig, platform


def run_startup_paths():
    rig, platform = _platform()
    _, cold = platform.invoke(rig.c0, "a", b"x")
    rendezvous(rig.c0.node.clock, rig.c1.node.clock)
    _, shared = platform.invoke(rig.c1, "a", b"x")
    _, warm = platform.invoke(rig.c1, "a", b"x")
    return cold, shared, warm


def run_chain(transport):
    rig, platform = _platform()
    # warm every stage on its node first (isolate communication cost)
    placements = [("a", rig.c0), ("b", rig.c1), ("c", rig.c0)]
    for name, ctx in placements:
        platform.invoke(ctx, name, b"warm")
    rig.align()
    payload = b"p" * 16384
    result, report = platform.invoke_chain(rig.c0, placements, payload, transport=transport)
    assert result.endswith(b"|a|b|c")
    return report


def run_density():
    _, platform = _platform()
    budgets = [1 << 30, 4 << 30, 16 << 30]
    return {
        budget: (
            platform.density("a", budget, shared_runtime=True),
            platform.density("a", budget, shared_runtime=False),
        )
        for budget in budgets
    }


def test_startup_paths(emit):
    cold, shared, warm = run_startup_paths()
    table = Table(
        "E7a — serverless sandbox startup by path",
        ["path", "startup (ms)", "invocation total (ms)"],
    )
    for label, report in (("cold", cold), ("FlacOS shared image", shared), ("warm pool", warm)):
        table.add_row(label, report.startup_ns / 1e6, report.total_ns / 1e6)
    emit(
        "E7a_serverless_startup",
        table.render()
        + f"\nshared image start beats cold by {cold.startup_ns / shared.startup_ns:.1f}x; "
        f"warm reuse is effectively free",
    )
    assert cold.startup_ns > shared.startup_ns > warm.startup_ns == 0.0


def test_chain_transport(emit):
    flacos = run_chain("flacos")
    tcp = run_chain("tcp")
    table = Table(
        "E7b — 3-stage chain across nodes (16 KiB payloads)",
        ["transport", "comm (us)", "end-to-end (us)"],
    )
    table.add_row("FlacOS IPC", flacos.comm_ns / 1000, flacos.total_ns / 1000)
    table.add_row("TCP", tcp.comm_ns / 1000, tcp.total_ns / 1000)
    emit(
        "E7b_serverless_chain",
        table.render()
        + f"\nFlacOS removes {100 * (1 - flacos.comm_ns / tcp.comm_ns):.0f}% of chain communication cost",
    )
    assert flacos.comm_ns < tcp.comm_ns
    assert flacos.total_ns < tcp.total_ns


def test_density(emit):
    results = run_density()
    table = Table(
        "E7c — sandboxes per memory budget (256 MiB runtime, 32 MiB private)",
        ["budget (GiB)", "FlacOS shared runtime", "private runtimes", "gain"],
    )
    for budget, (shared, private) in results.items():
        table.add_row(
            budget >> 30, shared, private, f"{shared / max(1, private):.1f}x"
        )
    emit("E7c_serverless_density", table.render())
    for budget, (shared, private) in results.items():
        assert shared > private
    # sharing gain grows with budget (runtime amortised once per rack)
    gains = [s / max(1, p) for s, p in results.values()]
    assert gains == sorted(gains)
