"""Tests for the serverless platform: scheduling, pools, chains, density."""

import pytest

from repro.apps.containers import ContainerRuntime, Registry, RuntimeSpec
from repro.apps.serverless import FunctionSpec, ServerlessPlatform
from repro.core.ipc import IpcSystem, NameRegistry
from repro.flacdk.sync import OperationLog
from repro.net import TcpNetwork
from tests.apps.test_containers import small_image


def _upper(ctx, payload: bytes) -> bytes:
    return payload.upper()


def _reverse(ctx, payload: bytes) -> bytes:
    return payload[::-1]


@pytest.fixture
def platform(rack2):
    machine, c0, c1, arena = rack2
    from repro.core.fs import FlacFS

    fs = FlacFS(machine, arena)
    registry = Registry()
    registry.push(small_image())
    runtime = ContainerRuntime(fs, registry, RuntimeSpec(runtime_init_ns=1e7))
    log = OperationLog(arena.take(OperationLog.region_size(256)), 256).format(c0)
    ipc = IpcSystem(machine, arena, NameRegistry(log))
    plat = ServerlessPlatform(machine, runtime, ipc=ipc, tcp=TcpNetwork())
    plat.deploy(FunctionSpec("upper", "tiny:1", _upper))
    plat.deploy(FunctionSpec("reverse", "tiny:1", _reverse))
    return machine, c0, c1, plat


class TestInvocation:
    def test_first_invocation_cold_then_warm(self, platform):
        _, c0, _, plat = platform
        result, report = plat.invoke(c0, "upper", b"hello")
        assert result == b"HELLO"
        assert report.start_kind == "cold"
        result, report = plat.invoke(c0, "upper", b"again")
        assert report.start_kind == "warm"
        assert report.startup_ns == 0

    def test_other_node_benefits_from_shared_cache(self, platform):
        _, c0, c1, plat = platform
        plat.invoke(c0, "upper", b"x")
        from repro.rack import rendezvous

        rendezvous(c0.node.clock, c1.node.clock)
        _, report = plat.invoke(c1, "upper", b"y")
        assert report.start_kind == "flacos-shared"

    def test_warm_is_much_faster_than_cold(self, platform):
        _, c0, _, plat = platform
        _, cold = plat.invoke(c0, "upper", b"x")
        _, warm = plat.invoke(c0, "upper", b"x")
        assert warm.total_ns < cold.total_ns / 5

    def test_unknown_function(self, platform):
        _, c0, _, plat = platform
        with pytest.raises(KeyError):
            plat.invoke(c0, "nope", b"")

    def test_duplicate_deploy_rejected(self, platform):
        _, _, _, plat = platform
        with pytest.raises(ValueError):
            plat.deploy(FunctionSpec("upper", "tiny:1", _upper))

    def test_exec_cost_charged(self, platform):
        _, c0, _, plat = platform
        plat.invoke(c0, "upper", b"warmup")
        _, report = plat.invoke(c0, "upper", b"x")
        assert report.exec_ns >= 250_000


class TestScheduling:
    def test_prefers_warm_node(self, platform):
        _, c0, c1, plat = platform
        plat.invoke(c1, "upper", b"x")  # warm pool on node 1
        assert plat.pick_node("upper") == 1

    def test_balances_when_no_warm_pool(self, platform):
        _, _, _, plat = platform
        assert plat.pick_node("upper") in (0, 1)

    def test_skips_dead_nodes(self, platform):
        machine, c0, c1, plat = platform
        plat.invoke(c0, "upper", b"x")
        machine.crash_node(0)
        assert plat.pick_node("upper") == 1


class TestChains:
    def test_chain_composes_functions(self, platform):
        _, c0, c1, plat = platform
        result, report = plat.invoke_chain(
            c0, [("upper", c0), ("reverse", c1)], b"abc", transport="flacos"
        )
        assert result == b"CBA"
        assert len(report.hops) == 2
        assert report.comm_ns > 0  # one cross-node hop

    def test_same_node_chain_has_no_comm(self, platform):
        _, c0, _, plat = platform
        _, report = plat.invoke_chain(
            c0, [("upper", c0), ("reverse", c0)], b"abc", transport="flacos"
        )
        assert report.comm_ns == 0

    def test_flacos_chain_cheaper_than_tcp(self, platform):
        _, c0, c1, plat = platform
        # warm both functions on both nodes first
        for ctx in (c0, c1):
            plat.invoke(ctx, "upper", b"w")
            plat.invoke(ctx, "reverse", b"w")
        payload = b"p" * 8192
        _, flacos = plat.invoke_chain(
            c0, [("upper", c0), ("reverse", c1)], payload, transport="flacos"
        )
        _, tcp = plat.invoke_chain(
            c0, [("upper", c0), ("reverse", c1)], payload, transport="tcp"
        )
        assert flacos.comm_ns < tcp.comm_ns

    def test_unknown_transport(self, platform):
        _, c0, c1, plat = platform
        with pytest.raises(ValueError):
            # cross-node placement forces a hop through the transport
            plat.invoke_chain(c0, [("upper", c1)], b"", transport="pigeon")


class TestDensity:
    def test_shared_runtime_fits_more_sandboxes(self, platform):
        _, _, _, plat = platform
        budget = 4 << 30
        shared = plat.density("upper", budget, shared_runtime=True)
        private = plat.density("upper", budget, shared_runtime=False)
        assert shared > private * 4

    def test_budget_below_runtime(self, platform):
        _, _, _, plat = platform
        assert plat.density("upper", 1 << 20, shared_runtime=True) == 0

    def test_warm_pool_accounting(self, platform):
        _, c0, c1, plat = platform
        plat.invoke(c0, "upper", b"x")
        plat.invoke(c1, "upper", b"x")
        # each node returned its sandbox to its own warm pool
        assert plat.invoke(c0, "upper", b"x")[1].start_kind == "warm"
        assert plat.invoke(c1, "upper", b"x")[1].start_kind == "warm"
