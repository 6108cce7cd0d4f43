"""Tests for the swap-based far-memory baseline (§3.3's retired service)."""

import pytest

from repro.core.memory.swap import PAGE_SIZE, SwapBackedMemory


def _tier(memory: SwapBackedMemory, vpn: int) -> str:
    for tier, pages in (("resident", memory._resident), ("zswap", memory._zswap),
                        ("disk", memory._swapped)):
        if vpn in pages:
            return tier
    return "untouched"


class TestResidency:
    def test_within_budget_no_faults_after_first_touch(self, rack2):
        _, c0, _, _ = rack2
        memory = SwapBackedMemory(resident_budget_pages=8)
        for vpn in range(4):
            memory.touch(c0, vpn, write=True, fill=b"page%d" % vpn)
        faults_after_populate = memory.stats.major_faults
        for vpn in range(4):
            assert memory.touch(c0, vpn).startswith(b"page%d" % vpn)
        assert memory.stats.major_faults == faults_after_populate
        assert memory.stats.hits == 4

    def test_over_budget_evicts_lru_to_disk(self, rack2):
        _, c0, _, _ = rack2
        memory = SwapBackedMemory(resident_budget_pages=4)
        for vpn in range(8):
            memory.touch(c0, vpn, write=True, fill=b"%d" % vpn)
        assert len(memory._resident) <= 4
        assert _tier(memory, 0) == "disk"
        assert _tier(memory, 7) == "resident"
        assert memory.stats.swap_outs > 0

    def test_swapped_page_comes_back_intact(self, rack2):
        _, c0, _, _ = rack2
        memory = SwapBackedMemory(resident_budget_pages=2)
        memory.touch(c0, 0, write=True, fill=b"original zero")
        for vpn in range(1, 5):
            memory.touch(c0, vpn, write=True)
        assert _tier(memory, 0) == "disk"
        page = memory.touch(c0, 0)
        assert page.startswith(b"original zero")
        assert memory.stats.swap_ins == 1

    def test_major_fault_costs_device_io(self, rack2):
        _, c0, _, _ = rack2
        memory = SwapBackedMemory(resident_budget_pages=2)
        for vpn in range(4):
            memory.touch(c0, vpn, write=True)
        before = c0.now()
        memory.touch(c0, 0)  # swapped out: full device round trip
        fault_cost = c0.now() - before
        before = c0.now()
        memory.touch(c0, 0)  # now resident
        hit_cost = c0.now() - before
        assert fault_cost > 20 * hit_cost


class TestZswapTier:
    def test_compressed_tier_absorbs_first_evictions(self, rack2):
        _, c0, _, _ = rack2
        memory = SwapBackedMemory(resident_budget_pages=2, zswap_pages=4)
        for vpn in range(5):
            memory.touch(c0, vpn, write=True, fill=b"%d" % vpn)
        assert _tier(memory, 0) == "zswap"
        assert memory.stats.swap_ins == 0  # nothing reached the disk yet

    def test_zswap_hit_cheaper_than_disk(self, rack2):
        _, c0, _, _ = rack2
        zswap = SwapBackedMemory(resident_budget_pages=2, zswap_pages=8)
        disk = SwapBackedMemory(resident_budget_pages=2, zswap_pages=0)
        for memory in (zswap, disk):
            for vpn in range(5):
                memory.touch(c0, vpn, write=True, fill=b"%d" % vpn)
        t0 = c0.now()
        assert zswap.touch(c0, 0).startswith(b"0")
        zswap_cost = c0.now() - t0
        t0 = c0.now()
        assert disk.touch(c0, 0).startswith(b"0")
        disk_cost = c0.now() - t0
        assert zswap_cost < disk_cost
        assert zswap.stats.compressed_hits == 1

    def test_zswap_overflow_demotes_to_disk(self, rack2):
        _, c0, _, _ = rack2
        memory = SwapBackedMemory(resident_budget_pages=2, zswap_pages=2)
        for vpn in range(8):
            memory.touch(c0, vpn, write=True, fill=b"%d" % vpn)
        tiers = {_tier(memory, v) for v in range(8)}
        assert tiers == {"resident", "zswap", "disk"}
        # everything still readable with correct contents
        for vpn in range(8):
            assert memory.touch(c0, vpn).startswith(b"%d" % vpn)


class TestValidation:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            SwapBackedMemory(resident_budget_pages=0)

    def test_untouched_tier(self, rack2):
        memory = SwapBackedMemory(resident_budget_pages=2)
        assert _tier(memory, 99) == "untouched"


class _RdmaTransport:
    """An RDMA queue pair as a MiniRedis transport (the kernel-bypass
    disaggregated baseline of Figure 1a)."""

    def __init__(self, qp) -> None:
        self.qp = qp

    def send(self, ctx, data: bytes) -> None:
        self.qp.post_send(ctx, data)

    def recv(self, ctx):
        return self.qp.poll_recv(ctx)


def connect_over_rdma(network, client_ctx, server_ctx):
    from repro.apps import MiniRedisClient, MiniRedisServer

    qp = network.create_qp(client_ctx.node_id, server_ctx.node_id)
    server = MiniRedisServer(server_ctx)
    server.attach(_RdmaTransport(qp))
    return MiniRedisClient(client_ctx, _RdmaTransport(qp), server), server


class TestRdmaRedisTransport:
    def test_rdma_transport_serves_commands(self, rack2):
        from repro.net import RdmaNetwork

        _, c0, c1, _ = rack2
        client, _ = connect_over_rdma(RdmaNetwork(), c0, c1)
        assert client.request(b"SET", b"k", b"v") == "OK"
        assert client.request(b"GET", b"k") == b"v"

    def test_rdma_between_tcp_and_flacos(self, rack2):
        """Latency ordering for small requests: RDMA < FlacOS < TCP —
        kernel bypass wins tiny messages; both beat the kernel stack."""
        from repro.apps import connect_over_flacos, connect_over_tcp
        from repro.core.ipc import IpcSystem, NameRegistry
        from repro.flacdk.sync import OperationLog
        from repro.net import RdmaNetwork, TcpNetwork
        from repro.rack import RackConfig, RackMachine

        def run(factory):
            machine = RackMachine(RackConfig(n_nodes=2, global_mem_size=1 << 26))
            c0, c1 = machine.context(0), machine.context(1)
            client, _ = factory(machine, c0, c1)
            client.request(b"SET", b"warm", b"x")
            _, ns = client.timed_request(b"GET", b"warm")
            return ns

        def flacos(machine, c0, c1):
            from repro.flacdk.arena import Arena

            arena = Arena(machine.global_base, machine.global_size)
            log = OperationLog(arena.take(OperationLog.region_size(64)), 64).format(c0)
            return connect_over_flacos(IpcSystem(machine, arena, NameRegistry(log)), c0, c1)

        rdma_ns = run(lambda m, a, b: connect_over_rdma(RdmaNetwork(), a, b))
        flacos_ns = run(flacos)
        tcp_ns = run(lambda m, a, b: connect_over_tcp(TcpNetwork(), a, b))
        assert rdma_ns < flacos_ns < tcp_ns
