"""MiniRedis: the Redis workload of the paper's evaluation (§4.2).

A RESP-speaking key-value server with the command subset the evaluation
exercises (plus the usual suspects), running over *pluggable
transports*: FlacOS IPC (shared memory, Figure 4's winner) or the
simulated kernel TCP stack (the networking baseline).  The server and
client run on different nodes and are driven cooperatively, exactly
like the paper's two-node setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Protocol, Tuple

from ..core.ipc import Connection, IpcSystem
from ..net.tcp import TcpConnection, TcpNetwork
from ..rack.machine import NodeContext
from . import resp


class Transport(Protocol):
    """What MiniRedis needs from a connection."""

    def send(self, ctx: NodeContext, data: bytes) -> Any: ...

    def recv(self, ctx: NodeContext) -> Optional[bytes]: ...


class FlacTransport:
    """FlacOS IPC connection as a MiniRedis transport."""

    def __init__(self, connection: Connection) -> None:
        self.connection = connection

    def send(self, ctx: NodeContext, data: bytes) -> None:
        if not self.connection.send(ctx, data):
            raise RuntimeError("IPC ring full")

    def recv(self, ctx: NodeContext) -> Optional[bytes]:
        return self.connection.recv(ctx)


class TcpTransport:
    """Kernel TCP connection as a MiniRedis transport."""

    def __init__(self, connection: TcpConnection) -> None:
        self.connection = connection

    def send(self, ctx: NodeContext, data: bytes) -> None:
        self.connection.send(ctx, data)

    def recv(self, ctx: NodeContext) -> Optional[bytes]:
        return self.connection.recv(ctx)


@dataclass
class _Entry:
    value: bytes
    expires_at_ns: Optional[float] = None


class MiniRedisServer:
    """The server: a command table over an in-memory keyspace.

    ``command_cost_ns`` models Redis's per-command CPU work (dispatch,
    hashing, allocation) — both transports pay it identically, so the
    Figure 4 difference comes purely from the communication path.
    """

    def __init__(self, node_ctx: NodeContext, command_cost_ns: float = 1200.0) -> None:
        self.ctx = node_ctx
        self.command_cost_ns = command_cost_ns
        self._data: Dict[bytes, _Entry] = {}
        self._transports: List[Transport] = []
        self.commands_served = 0

    # -- wiring ---------------------------------------------------------------------

    def attach(self, transport: Transport) -> None:
        self._transports.append(transport)

    def serve_pending(self) -> int:
        """Handle every queued request on every attached transport.

        A frame may carry many pipelined commands; all their replies go
        back as one concatenated frame, so a batch costs one transport
        round trip in each direction instead of one per command.
        """
        served = 0
        for transport in self._transports:
            while True:
                raw = transport.recv(self.ctx)
                if raw is None:
                    break
                commands = resp.decode_commands(raw)
                if not commands:
                    continue
                replies = b"".join(
                    [resp.encode_reply(self.execute(command)) for command in commands]
                )
                transport.send(self.ctx, replies)
                served += len(commands)
        return served

    # -- command execution -------------------------------------------------------------

    def execute(self, command: List[bytes]) -> Any:
        if not command:
            return resp.RedisError("empty command")
        self.ctx.advance(self.command_cost_ns)
        self.commands_served += 1
        verb = command[0].upper()
        handler = self._COMMANDS.get(verb)
        if handler is None:
            return Exception(f"unknown command '{verb.decode(errors='replace')}'")
        try:
            return handler(self, *command[1:])
        except TypeError:
            return Exception(f"wrong number of arguments for '{verb.decode()}'")

    def _live(self, key: bytes) -> Optional[_Entry]:
        entry = self._data.get(key)
        if entry is None:
            return None
        if entry.expires_at_ns is not None and self.ctx.now() >= entry.expires_at_ns:
            del self._data[key]
            return None
        return entry

    # -- commands ----------------------------------------------------------------------------

    def _cmd_ping(self, *args: bytes) -> Any:
        return args[0] if args else "PONG"

    def _cmd_set(self, key: bytes, value: bytes) -> str:
        self._data[key] = _Entry(value)
        return "OK"

    def _cmd_setex(self, key: bytes, seconds: bytes, value: bytes) -> str:
        ttl_ns = float(seconds) * 1e9
        self._data[key] = _Entry(value, expires_at_ns=self.ctx.now() + ttl_ns)
        return "OK"

    def _cmd_get(self, key: bytes) -> Optional[bytes]:
        entry = self._live(key)
        return entry.value if entry else None

    def _cmd_del(self, *keys: bytes) -> int:
        return sum(1 for key in keys if self._data.pop(key, None) is not None)

    def _cmd_exists(self, *keys: bytes) -> int:
        return sum(1 for key in keys if self._live(key) is not None)

    def _cmd_strlen(self, key: bytes) -> int:
        entry = self._live(key)
        return len(entry.value) if entry else 0

    def _cmd_append(self, key: bytes, suffix: bytes) -> int:
        entry = self._live(key)
        if entry is None:
            self._data[key] = _Entry(suffix)
            return len(suffix)
        entry.value += suffix
        return len(entry.value)

    def _cmd_incr(self, key: bytes) -> Any:
        return self._cmd_incrby(key, b"1")

    def _cmd_decr(self, key: bytes) -> Any:
        return self._cmd_incrby(key, b"-1")

    def _cmd_incrby(self, key: bytes, delta: bytes) -> Any:
        entry = self._live(key)
        try:
            current = int(entry.value) if entry else 0
            new = current + int(delta)
        except ValueError:
            return Exception("value is not an integer or out of range")
        self._data[key] = _Entry(str(new).encode())
        return new

    def _cmd_mset(self, *pairs: bytes) -> Any:
        if len(pairs) % 2:
            return Exception("wrong number of arguments for 'MSET'")
        for key, value in zip(pairs[::2], pairs[1::2]):
            self._data[key] = _Entry(value)
        return "OK"

    def _cmd_mget(self, *keys: bytes) -> List[Optional[bytes]]:
        return [entry.value if (entry := self._live(key)) else None for key in keys]

    def _cmd_expire(self, key: bytes, seconds: bytes) -> int:
        entry = self._live(key)
        if entry is None:
            return 0
        entry.expires_at_ns = self.ctx.now() + float(seconds) * 1e9
        return 1

    def _cmd_ttl(self, key: bytes) -> int:
        entry = self._live(key)
        if entry is None:
            return -2
        if entry.expires_at_ns is None:
            return -1
        return max(0, int((entry.expires_at_ns - self.ctx.now()) / 1e9))

    def _cmd_dbsize(self) -> int:
        return sum(1 for key in list(self._data) if self._live(key) is not None)

    def _cmd_keys(self, pattern: bytes) -> List[bytes]:
        if pattern != b"*":
            return Exception("only '*' is supported")
        return sorted(key for key in list(self._data) if self._live(key) is not None)

    def _cmd_flushdb(self) -> str:
        self._data.clear()
        return "OK"

    #: The whole command set, by upper-case verb.  ``execute`` looks verbs
    #: up here and nowhere else, so no verb can reach another attribute.
    _COMMANDS = {
        b"PING": _cmd_ping,
        b"SET": _cmd_set,
        b"SETEX": _cmd_setex,
        b"GET": _cmd_get,
        b"DEL": _cmd_del,
        b"EXISTS": _cmd_exists,
        b"STRLEN": _cmd_strlen,
        b"APPEND": _cmd_append,
        b"INCR": _cmd_incr,
        b"DECR": _cmd_decr,
        b"INCRBY": _cmd_incrby,
        b"MSET": _cmd_mset,
        b"MGET": _cmd_mget,
        b"EXPIRE": _cmd_expire,
        b"TTL": _cmd_ttl,
        b"DBSIZE": _cmd_dbsize,
        b"KEYS": _cmd_keys,
        b"FLUSHDB": _cmd_flushdb,
    }


class MiniRedisClient:
    """Synchronous client: each request drives the server's poll loop."""

    def __init__(
        self,
        ctx: NodeContext,
        transport: Transport,
        server: MiniRedisServer,
    ) -> None:
        self.ctx = ctx
        self.transport = transport
        self.server = server

    def request(self, *parts: bytes) -> Any:
        """Issue one command; returns the decoded reply.

        The simulator has no preemption, so the client drives the server
        between send and receive — the clocks still interleave correctly
        through the transport's causality tracking.
        """
        self.transport.send(self.ctx, resp.encode_command(*parts))
        self.server.serve_pending()
        while True:
            raw = self.transport.recv(self.ctx)
            if raw is not None:
                break
            self.server.serve_pending()
        reply, _ = resp.decode(raw)
        if isinstance(reply, Exception):
            raise resp.RedisError(str(reply))
        return reply

    # sugar for the common commands
    def set(self, key: bytes, value: bytes) -> str:
        return self.request(b"SET", key, value)

    def get(self, key: bytes) -> Optional[bytes]:
        return self.request(b"GET", key)

    def timed_request(self, *parts: bytes) -> Tuple[Any, float]:
        """(reply, client-observed latency in ns)."""
        start = self.ctx.now()
        reply = self.request(*parts)
        return reply, self.ctx.now() - start

    #: Commands packed per transport frame when pipelining.  Large enough
    #: to amortise the per-frame transport cost, small enough that a frame
    #: of typical commands stays well under the IPC buffer-pool slab size.
    PIPELINE_CHUNK = 64

    def pipeline(self, commands: List[Tuple[bytes, ...]]) -> List[Any]:
        """Issue many commands before reading any reply (Redis pipelining).

        Amortises the per-request round trip *and* the per-frame
        transport cost: commands are packed ``PIPELINE_CHUNK`` to a
        frame, the server drains each frame in one poll and replies with
        one concatenated frame per request frame.  Returns the decoded
        replies in order.
        """
        backlog: List[Tuple[bytes, ...]] = list(commands)
        sent = 0
        replies: List[Any] = []
        while len(replies) < len(commands):
            # fill the transport until it pushes back or we run dry
            while backlog:
                chunk = backlog[: self.PIPELINE_CHUNK]
                try:
                    self.transport.send(self.ctx, resp.encode_commands(chunk))
                except RuntimeError:
                    break  # ring full: drain some replies first
                del backlog[: len(chunk)]
                sent += len(chunk)
            self.server.serve_pending()
            while len(replies) < sent:
                raw = self.transport.recv(self.ctx)
                if raw is None:
                    break
                for reply in resp.decode_replies(raw):
                    if isinstance(reply, Exception):
                        raise resp.RedisError(str(reply))
                    replies.append(reply)
        return replies

    def timed_pipeline(self, commands: List[Tuple[bytes, ...]]) -> Tuple[List[Any], float]:
        """(replies, total client time in ns) for a pipelined batch."""
        start = self.ctx.now()
        replies = self.pipeline(commands)
        return replies, self.ctx.now() - start


def connect_over_flacos(
    ipc: IpcSystem, client_ctx: NodeContext, server_ctx: NodeContext, name: str = "redis"
) -> Tuple[MiniRedisClient, MiniRedisServer]:
    """Wire a client and server over FlacOS IPC (paper configuration)."""
    listener = ipc.listen(server_ctx, name)
    client_conn = ipc.connect(client_ctx, name)
    server_conn = listener.accept(server_ctx)
    server = MiniRedisServer(server_ctx)
    server.attach(FlacTransport(server_conn))
    client = MiniRedisClient(client_ctx, FlacTransport(client_conn), server)
    return client, server


def connect_over_tcp(
    network: TcpNetwork, client_ctx: NodeContext, server_ctx: NodeContext, name: str = "redis-tcp"
) -> Tuple[MiniRedisClient, MiniRedisServer]:
    """Wire a client and server over the kernel TCP baseline."""
    network.listen(server_ctx, name)
    connection = network.connect(client_ctx, name)
    server = MiniRedisServer(server_ctx)
    server.attach(TcpTransport(connection))
    client = MiniRedisClient(client_ctx, TcpTransport(connection), server)
    return client, server
