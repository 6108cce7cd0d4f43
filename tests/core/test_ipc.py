"""Tests for FlacOS IPC: sockets, buffers, registry, RPC."""

import pytest

from repro.core.ipc import (
    BufferPool,
    INLINE_MAX,
    IpcSystem,
    NameInUse,
    NameRegistry,
    RpcSystem,
    UnknownName,
)
from repro.flacdk.sync import OperationLog


@pytest.fixture
def ipc_rig(rack2):
    machine, c0, c1, arena = rack2
    log = OperationLog(arena.take(OperationLog.region_size(256)), 256).format(c0)
    registry = NameRegistry(log)
    ipc = IpcSystem(machine, arena, registry)
    return machine, c0, c1, arena, registry, ipc


def _connect(ipc, c_client, c_server, name="svc"):
    listener = ipc.listen(c_server, name)
    client = ipc.connect(c_client, name)
    server = listener.accept(c_server)
    return client, server


class TestSockets:
    def test_small_message_round_trip(self, ipc_rig):
        _, c0, c1, _, _, ipc = ipc_rig
        client, server = _connect(ipc, c0, c1)
        client.send(c0, b"hello server")
        assert server.recv(c1) == b"hello server"
        server.send(c1, b"hello client")
        assert client.recv(c0) == b"hello client"

    def test_large_message_uses_shared_buffer(self, ipc_rig):
        _, c0, c1, _, _, ipc = ipc_rig
        client, server = _connect(ipc, c0, c1)
        payload = b"L" * (INLINE_MAX + 5000)
        live_before = ipc.buffers.live_buffers
        client.send(c0, payload)
        assert ipc.buffers.live_buffers == live_before + 1
        assert server.recv(c1) == payload
        assert ipc.buffers.live_buffers == live_before  # freed on receive

    def test_recv_empty_returns_none(self, ipc_rig):
        _, c0, c1, _, _, ipc = ipc_rig
        client, server = _connect(ipc, c0, c1)
        assert server.recv(c1) is None

    def test_messages_keep_order(self, ipc_rig):
        _, c0, c1, _, _, ipc = ipc_rig
        client, server = _connect(ipc, c0, c1)
        for i in range(10):
            client.send(c0, bytes([i]))
        assert [server.recv(c1) for i in range(10)] == [bytes([i]) for i in range(10)]

    def test_multiple_connections_to_one_listener(self, ipc_rig):
        _, c0, c1, _, _, ipc = ipc_rig
        listener = ipc.listen(c1, "multi")
        conn_a = ipc.connect(c0, "multi")
        conn_b = ipc.connect(c0, "multi")
        srv_a = listener.accept(c1)
        srv_b = listener.accept(c1)
        conn_a.send(c0, b"A")
        conn_b.send(c0, b"B")
        assert srv_a.recv(c1) == b"A"
        assert srv_b.recv(c1) == b"B"

    def test_accept_without_pending_returns_none(self, ipc_rig):
        _, _, c1, _, _, ipc = ipc_rig
        listener = ipc.listen(c1, "lonely")
        assert listener.accept(c1) is None

    def test_connect_unknown_name(self, ipc_rig):
        _, c0, _, _, _, ipc = ipc_rig
        with pytest.raises(UnknownName):
            ipc.connect(c0, "nope")

    def test_zero_copy_descriptor_path(self, ipc_rig):
        _, c0, c1, _, _, ipc = ipc_rig
        client, server = _connect(ipc, c0, c1)
        ref = ipc.buffers.put(c0, b"in place")
        client.send_buffer(c0, ref)
        got = server.recv_buffer(c1)
        assert got.addr == ref.addr
        assert ipc.buffers.get(c1, got) == b"in place"
        ipc.buffers.free(c1, got)

    def test_cheaper_than_many_copies(self, ipc_rig):
        """Zero-copy transfer of 64 KiB should cost far less than
        byte-for-byte copying twice per side at memcpy speed."""
        _, c0, c1, _, _, ipc = ipc_rig
        client, server = _connect(ipc, c0, c1)
        payload = b"z" * 65536
        t0 = c0.now()
        client.send(c0, payload)
        server.recv(c1)
        elapsed = max(c0.now() - t0, c1.now() - t0)
        assert elapsed < 200_000  # 200 us is generous; 4 copies would add more


class TestRegistry:
    def test_duplicate_bind_rejected(self, ipc_rig):
        _, c0, c1, _, registry, ipc = ipc_rig
        ipc.listen(c0, "name")
        with pytest.raises(NameInUse):
            ipc.listen(c1, "name")

    def test_local_resolve_can_be_stale(self, ipc_rig):
        _, c0, c1, _, registry, ipc = ipc_rig
        registry.nr.replica(c1).read(c1, lambda s: None)  # instantiate
        ipc.listen(c0, "late")
        assert registry.nr.replica(c1).read_local(lambda s: s.get("late")) is None  # stale ok
        assert registry.resolve(c1, "late") is not None  # synced


def _echo_service(ctx, payload):
    return payload


def _stateful_counter(ctx, cell_addr, delta):
    return ctx.fetch_add(cell_addr, delta) + delta


class TestRpc:
    def test_call_from_remote_node(self, ipc_rig):
        _, c0, c1, _, registry, ipc = ipc_rig
        rpc = RpcSystem(ipc.machine, registry, ipc.buffers)
        rpc.register(c1, "echo", _echo_service)
        assert rpc.call(c0, "echo", b"migrated") == b"migrated"

    def test_code_context_fetched_once_per_node(self, ipc_rig):
        _, c0, c1, _, registry, ipc = ipc_rig
        rpc = RpcSystem(ipc.machine, registry, ipc.buffers)
        rpc.register(c1, "echo", _echo_service)
        for _ in range(5):
            rpc.call(c0, "echo", b"x")
        assert rpc.stats.context_fetches == 1
        assert rpc.stats.local_cache_hits == 4

    def test_calls_are_counted_and_each_pays_two_switches(self, ipc_rig):
        _, c0, c1, _, registry, ipc = ipc_rig
        rpc = RpcSystem(ipc.machine, registry, ipc.buffers)
        rpc.register(c1, "echo", _echo_service)
        rpc.call(c0, "echo", b"warm")  # fetches the code context
        for _ in range(4):
            before = c0.now()
            rpc.call(c0, "echo", b"x")  # touches nothing: the switches are all it pays
            assert c0.now() - before == pytest.approx(2 * rpc.costs.addr_space_switch_ns)
        assert rpc.stats.calls == 5

    def test_service_state_in_global_memory(self, ipc_rig):
        machine, c0, c1, arena, registry, ipc = ipc_rig
        cell = arena.take(8, align=8)
        c0.atomic_store(cell, 0)
        rpc = RpcSystem(machine, registry, ipc.buffers)
        rpc.register(c0, "count", _stateful_counter)
        assert rpc.call(c0, "count", cell, 1) == 1
        assert rpc.call(c1, "count", cell, 1) == 2  # both nodes share state


class TestBufferPool:
    def test_round_trip_and_free(self, rack2):
        machine, c0, c1, arena = rack2
        from repro.flacdk.alloc import SharedHeap

        heap = SharedHeap(arena.take(1 << 20), 1 << 20).format(c0)
        pool = BufferPool(heap)
        ref = pool.put(c0, b"payload")
        assert pool.get(c1, ref) == b"payload"
        pool.free(c1, ref)
        assert pool.live_buffers == 0

    def test_empty_buffer(self, rack2):
        machine, c0, _, arena = rack2
        from repro.flacdk.alloc import SharedHeap

        heap = SharedHeap(arena.take(1 << 20), 1 << 20).format(c0)
        pool = BufferPool(heap)
        ref = pool.put(c0, b"")
        assert pool.get(c0, ref) == b""
