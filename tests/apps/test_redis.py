"""Tests for RESP and MiniRedis over both transports."""

import pytest

from repro.apps import resp
from repro.apps.redis import MiniRedisServer, connect_over_flacos, connect_over_tcp
from repro.core.ipc import IpcSystem, NameRegistry
from repro.flacdk.sync import OperationLog
from repro.net import TcpNetwork


class TestResp:
    def test_command_round_trip(self):
        encoded = resp.encode_command(b"SET", b"key", b"value")
        assert resp.decode_commands(encoded) == [[b"SET", b"key", b"value"]]

    def test_reply_encodings(self):
        assert resp.decode(resp.encode_reply("OK"))[0] == "OK"
        assert resp.decode(resp.encode_reply(42))[0] == 42
        assert resp.decode(resp.encode_reply(b"bulk"))[0] == b"bulk"
        assert resp.decode(resp.encode_reply(None))[0] is None
        value, _ = resp.decode(resp.encode_reply([b"a", 1, None]))
        assert value == [b"a", 1, None]

    def test_error_reply(self):
        value, _ = resp.decode(resp.encode_reply(Exception("boom")))
        assert isinstance(value, resp.RedisError)

    def test_binary_safe_values(self):
        payload = bytes(range(256))
        assert resp.decode(resp.encode_reply(payload))[0] == payload

    def test_truncated_input_raises(self):
        with pytest.raises(resp.RespError):
            resp.decode(b"$10\r\nshort\r\n")
        with pytest.raises(resp.RespError):
            resp.decode(b"")

    def test_trailing_bytes_rejected_for_commands(self):
        data = resp.encode_command(b"PING") + b"junk"
        with pytest.raises(resp.RespError):
            resp.decode_commands(data)


@pytest.fixture
def flacos_pair(rack2):
    machine, c0, c1, arena = rack2
    log = OperationLog(arena.take(OperationLog.region_size(256)), 256).format(c0)
    ipc = IpcSystem(machine, arena, NameRegistry(log))
    return connect_over_flacos(ipc, c0, c1)


@pytest.fixture
def tcp_pair(rack2):
    _, c0, c1, _ = rack2
    return connect_over_tcp(TcpNetwork(), c0, c1)


class TestCommands:
    def test_set_get(self, flacos_pair):
        client, _ = flacos_pair
        assert client.request(b"SET", b"k", b"v") == "OK"
        assert client.request(b"GET", b"k") == b"v"
        assert client.request(b"GET", b"missing") is None

    def test_incr_decr(self, flacos_pair):
        client, _ = flacos_pair
        assert client.request(b"INCR", b"n") == 1
        assert client.request(b"INCRBY", b"n", b"10") == 11
        assert client.request(b"INCRBY", b"n", b"-1") == 10

    def test_incr_non_integer_errors(self, flacos_pair):
        client, _ = flacos_pair
        client.request(b"SET", b"s", b"not-a-number")
        with pytest.raises(resp.RedisError):
            client.request(b"INCR", b"s")

    def test_mset_mget(self, flacos_pair):
        client, _ = flacos_pair
        client.request(b"MSET", b"x", b"1", b"y", b"2")
        assert client.request(b"MGET", b"x", b"y", b"z") == [b"1", b"2", None]

    def test_keys_dbsize_flush(self, flacos_pair):
        client, _ = flacos_pair
        assert client.request(b"DBSIZE") == 0
        client.request(b"SET", b"a", b"1")
        client.request(b"SET", b"b", b"2")
        assert client.request(b"DBSIZE") == 2

    def test_unknown_command(self, flacos_pair):
        client, _ = flacos_pair
        with pytest.raises(resp.RedisError):
            client.request(b"NOPE")

    def test_large_values(self, flacos_pair):
        client, _ = flacos_pair
        value = bytes(range(256)) * 64  # 16 KiB, forces the buffer path
        client.request(b"SET", b"big", value)
        assert client.request(b"GET", b"big") == value


class TestTransportParity:
    """Both transports must produce identical results — only time differs."""

    def test_same_semantics_over_tcp(self, tcp_pair):
        client, _ = tcp_pair
        client.request(b"SET", b"k", b"v")
        assert client.request(b"GET", b"k") == b"v"
        assert client.request(b"INCR", b"n") == 1

    def test_flacos_is_faster(self, rack2):
        machine, c0, c1, arena = rack2
        log = OperationLog(arena.take(OperationLog.region_size(256)), 256).format(c0)
        ipc = IpcSystem(machine, arena, NameRegistry(log))
        fclient, _ = connect_over_flacos(ipc, c0, c1)
        fclient.request(b"SET", b"warm", b"x")
        _, flacos_ns = fclient.timed_request(b"GET", b"warm")

        machine2 = type(machine)(machine.config)
        tclient, _ = connect_over_tcp(TcpNetwork(), machine2.context(0), machine2.context(1))
        tclient.request(b"SET", b"warm", b"x")
        _, tcp_ns = tclient.timed_request(b"GET", b"warm")
        assert tcp_ns > flacos_ns

    def test_figure4_band(self, rack2):
        """The headline claim: 1.75-2.4x latency reduction."""
        machine, c0, c1, arena = rack2
        log = OperationLog(arena.take(OperationLog.region_size(256)), 256).format(c0)
        ipc = IpcSystem(machine, arena, NameRegistry(log))
        fclient, _ = connect_over_flacos(ipc, c0, c1)
        machine2 = type(machine)(machine.config)
        tclient, _ = connect_over_tcp(TcpNetwork(), machine2.context(0), machine2.context(1))
        for size in (64, 4096):
            value = b"v" * size
            ratios = []
            for i in range(20):
                key = b"k%d" % i
                _, f_ns = fclient.timed_request(b"SET", key, value)
                _, t_ns = tclient.timed_request(b"SET", key, value)
                ratios.append(t_ns / f_ns)
            mean = sum(ratios) / len(ratios)
            assert 1.4 < mean < 3.2, f"ratio {mean:.2f} far outside the paper's band"


class TestServerInternals:
    def test_server_counts_commands(self, rack2):
        _, c0, _, _ = rack2
        server = MiniRedisServer(c0)
        server.execute([b"SET", b"k", b"v"])
        server.execute([b"GET", b"k"])
        assert server.commands_served == 2

    def test_wrong_arity_is_an_error_reply(self, rack2):
        _, c0, _, _ = rack2
        server = MiniRedisServer(c0)
        reply = server.execute([b"SET", b"only-key"])
        assert isinstance(reply, Exception)

    def test_hostile_verbs_get_the_unknown_command_reply(self, rack2):
        _, c0, _, _ = rack2
        server = MiniRedisServer(c0)
        removed = b"PING DEL EXISTS STRLEN APPEND DECR SETEX EXPIRE TTL KEYS FLUSHDB".split()
        for verb in (b"\xff\xfe", b"", b"init__", b"_live", b"cmd_get", b"COMMANDS", *removed):
            reply = server.execute([verb, b"k"])
            assert type(reply) is Exception and "unknown command" in str(reply), verb

    def test_verbs_resolve_through_the_command_table_only(self, rack2):
        _, c0, _, _ = rack2
        server = MiniRedisServer(c0)
        assert set(MiniRedisServer._COMMANDS) == {
            name[5:].upper().encode() for name in vars(MiniRedisServer) if name.startswith("_cmd_")
        }
        assert server.execute([b"set", b"k", b"v"]) == "OK"  # verbs are case-insensitive
        assert server.execute([b"GeT", b"k"]) == b"v"

    def test_command_cost_charged(self, rack2):
        _, c0, _, _ = rack2
        server = MiniRedisServer(c0, command_cost_ns=5000)
        before = c0.now()
        server.execute([b"DBSIZE"])
        assert c0.now() - before >= 5000


class TestPipelining:
    def test_pipeline_preserves_order_and_replies(self, flacos_pair):
        client, _ = flacos_pair
        commands = [(b"SET", b"p%d" % i, b"%d" % i) for i in range(10)]
        commands += [(b"GET", b"p%d" % i) for i in range(10)]
        replies = client.pipeline(commands)
        assert replies[:10] == ["OK"] * 10
        assert replies[10:] == [b"%d" % i for i in range(10)]

    def test_pipeline_errors_propagate(self, flacos_pair):
        client, _ = flacos_pair
        with pytest.raises(resp.RedisError):
            client.pipeline([(b"SET", b"k", b"v"), (b"NOPE",)])

    def test_pipeline_larger_than_ring(self, flacos_pair):
        """Batches beyond the ring's 64 slots drain incrementally."""
        client, _ = flacos_pair
        commands = [(b"SET", b"q%d" % i, b"v") for i in range(200)]
        assert client.pipeline(commands) == ["OK"] * 200

    def test_pipelining_amortises_tcp_round_trips(self, tcp_pair):
        client, _ = tcp_pair
        commands = [(b"SET", b"r%d" % i, b"v" * 64) for i in range(50)]
        _, batch_ns = client.timed_pipeline(commands)
        t0 = client.ctx.now()
        for i in range(50):
            client.request(b"GET", b"r%d" % i)
        sequential_ns = client.ctx.now() - t0
        assert batch_ns / 50 < sequential_ns / 50


class TestPipelinedFrames:
    """The multi-command frame codec behind pipeline batching."""

    def test_commands_frame_round_trip(self):
        commands = [
            [b"SET", b"k1", b"v1"],
            [b"GET", b"k1"],
            [b"MGET", b"k1", b"k2"],
            [b"PING"],
        ]
        frame = resp.encode_commands(commands)
        assert resp.decode_commands(frame) == commands
        assert resp.decode_commands(resp.encode_commands(commands[:1])) == commands[:1]
        assert resp.decode_commands(b"") == []

    def test_replies_frame_round_trip(self):
        replies = ["OK", None, 7, b"payload", [b"a", None]]
        frame = b"".join(resp.encode_reply(r) for r in replies)
        assert resp.decode_replies(frame) == replies
        assert resp.decode_replies(b"") == []

    def test_non_command_frame_rejected(self):
        with pytest.raises(resp.RespError):
            resp.decode_commands(resp.encode_reply(7))

    def test_server_answers_one_frame_per_request_frame(self, flacos_pair):
        client, server = flacos_pair
        frame = resp.encode_commands(
            [[b"SET", b"a", b"1"], [b"INCR", b"a"], [b"GET", b"a"]]
        )
        client.transport.send(client.ctx, frame)
        assert server.serve_pending() == 3
        raw = client.transport.recv(client.ctx)
        assert resp.decode_replies(raw) == ["OK", 2, b"2"]
        assert client.transport.recv(client.ctx) is None  # exactly one frame
