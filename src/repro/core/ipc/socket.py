"""FlacOS sockets: domain-socket API over shared memory (§3.5).

A connection is a pair of SPSC rings in global memory plus the shared
buffer pool.  Small messages are inlined in ring slots; larger payloads
travel as 16-byte descriptors to buffers the receiver reads *in place* —
zero copies end to end, versus the two copies per side the TCP baseline
pays.

The registry carries listener endpoints; connecting allocates the
connection region, formats both rings, and posts the server-side half
through the listener's accept ring.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from ...flacdk.alloc import SharedHeap
from ...flacdk.arena import Arena
from ...flacdk.structures import SpscRing
from ...rack.machine import NodeContext, RackMachine
from ...telemetry import TELEMETRY as _TEL
from ..params import OsCosts

_SUB = "core.ipc"
from .registry import Endpoint, NameRegistry
from .shared_buffer import PACKED_SIZE, BufferPool, BufferRef

_TAG_INLINE = 0
_TAG_BUFFER = 1
#: the tags as the one-byte prefixes that go on the ring
_INLINE = bytes([_TAG_INLINE])
_BUFFER = bytes([_TAG_BUFFER])

#: ring slots hold tag byte + up to this much inline payload
INLINE_MAX = 1024
_RING_SLOTS = 64
_ACCEPT_SLOTS = 16


class IpcError(Exception):
    pass


@dataclass
class ConnectionGeometry:
    """Shared-memory layout of one connection (what accept receives)."""

    c2s_addr: int
    s2c_addr: int

    def pack(self) -> bytes:
        return struct.pack("<QQ", self.c2s_addr, self.s2c_addr)

    @staticmethod
    def unpack(data: bytes) -> "ConnectionGeometry":
        return ConnectionGeometry(*struct.unpack("<QQ", data))


class Connection:
    """One endpoint of an established FlacOS IPC connection."""

    def __init__(
        self,
        ipc: "IpcSystem",
        send_ring: SpscRing,
        recv_ring: SpscRing,
        is_server: bool,
    ) -> None:
        self.ipc = ipc
        self._send = send_ring
        self._recv = recv_ring
        self.is_server = is_server

    # -- byte-message API -----------------------------------------------------------

    def send(self, ctx: NodeContext, data: bytes) -> bool:
        """Send one message; False when the ring is full (try again)."""
        ctx.advance(self.ipc.costs.syscall_ns)
        if len(data) <= INLINE_MAX:
            ok = self._send.try_push(ctx, _INLINE + data)
            if ok and _TEL.enabled:
                _TEL.registry.inc(ctx.node_id, _SUB, "ipc.send.inline")
            return ok
        before = ctx.now() if _TEL.enabled else 0.0
        ref = self.ipc.buffers.put(ctx, data)
        ok = self._send.try_push(ctx, _BUFFER + ref.pack())
        if not ok:
            self.ipc.buffers.free(ctx, ref)
        elif _TEL.enabled:
            reg = _TEL.registry
            reg.inc(ctx.node_id, _SUB, "ipc.send.zero_copy")
            reg.observe(ctx.node_id, _SUB, "ipc.zero_copy_send_ns", ctx.now() - before)
        return ok

    def recv(self, ctx: NodeContext) -> Optional[bytes]:
        """Receive one message; None when nothing is pending."""
        ctx.advance(self.ipc.costs.syscall_ns)
        raw = self._recv.try_pop(ctx)
        if raw is None:
            return None
        if raw[0] == _TAG_INLINE:
            return raw[1:]
        ref = BufferRef.unpack(raw[1 : 1 + PACKED_SIZE])
        data = self.ipc.buffers.get(ctx, ref)
        self.ipc.buffers.free(ctx, ref)
        return data

    # -- zero-copy API -----------------------------------------------------------------

    def send_buffer(self, ctx: NodeContext, ref: BufferRef) -> bool:
        """Hand an already-shared buffer to the peer (ownership moves)."""
        ctx.advance(self.ipc.costs.syscall_ns)
        before = ctx.now() if _TEL.enabled else 0.0
        ok = self._send.try_push(ctx, _BUFFER + ref.pack())
        if ok and _TEL.enabled:
            reg = _TEL.registry
            reg.inc(ctx.node_id, _SUB, "ipc.send.zero_copy")
            reg.observe(ctx.node_id, _SUB, "ipc.zero_copy_send_ns", ctx.now() - before)
        return ok

    def recv_buffer(self, ctx: NodeContext) -> Optional[BufferRef]:
        """Receive a descriptor without copying the payload anywhere."""
        ctx.advance(self.ipc.costs.syscall_ns)
        raw = self._recv.try_pop(ctx)
        if raw is None:
            return None
        if raw[0] != _TAG_BUFFER:
            raise IpcError("peer sent an inline message; use recv()")
        return BufferRef.unpack(raw[1 : 1 + PACKED_SIZE])


class ListenSocket:
    """Server-side listener bound to a name."""

    def __init__(self, ipc: "IpcSystem", name: str, accept_ring: SpscRing) -> None:
        self.ipc = ipc
        self.name = name
        self._accept_ring = accept_ring

    def accept(self, ctx: NodeContext) -> Optional[Connection]:
        """Take one pending connection; None if nobody is connecting."""
        ctx.advance(self.ipc.costs.syscall_ns)
        raw = self._accept_ring.try_pop(ctx)
        if raw is None:
            return None
        geometry = ConnectionGeometry.unpack(raw)
        c2s = SpscRing(geometry.c2s_addr, _RING_SLOTS, INLINE_MAX + 1 + PACKED_SIZE)
        s2c = SpscRing(geometry.s2c_addr, _RING_SLOTS, INLINE_MAX + 1 + PACKED_SIZE)
        return Connection(self.ipc, send_ring=s2c, recv_ring=c2s, is_server=True)


class IpcSystem:
    """The FlacOS communication subsystem."""

    def __init__(
        self,
        machine: RackMachine,
        arena: Arena,
        registry: NameRegistry,
        costs: Optional[OsCosts] = None,
        heap_bytes: int = 1 << 23,
    ) -> None:
        self.machine = machine
        self.costs = costs or OsCosts()
        boot = machine.context(0)
        self.heap = SharedHeap(arena.take(heap_bytes, align=64), heap_bytes).format(boot)
        self.buffers = BufferPool(self.heap)
        self.registry = registry

    # -- connection setup -------------------------------------------------------------

    def listen(self, ctx: NodeContext, name: str) -> ListenSocket:
        ring_size = SpscRing.region_size(_ACCEPT_SLOTS, 64)
        ring_addr = self.heap.alloc(ctx, ring_size)
        accept_ring = SpscRing(ring_addr, _ACCEPT_SLOTS, 64).format(ctx)
        self.registry.bind(
            ctx, Endpoint(name=name, node_id=ctx.node_id, accept_ring_addr=ring_addr)
        )
        return ListenSocket(self, name, accept_ring)

    def connect(self, ctx: NodeContext, name: str) -> Connection:
        endpoint = self.registry.resolve(ctx, name)
        slot_payload = INLINE_MAX + 1 + PACKED_SIZE
        ring_size = SpscRing.region_size(_RING_SLOTS, slot_payload)
        c2s_addr = self.heap.alloc(ctx, ring_size)
        s2c_addr = self.heap.alloc(ctx, ring_size)
        c2s = SpscRing(c2s_addr, _RING_SLOTS, slot_payload).format(ctx)
        s2c = SpscRing(s2c_addr, _RING_SLOTS, slot_payload).format(ctx)
        accept_ring = SpscRing(endpoint.accept_ring_addr, _ACCEPT_SLOTS, 64)
        if not accept_ring.try_push(ctx, ConnectionGeometry(c2s_addr, s2c_addr).pack()):
            raise IpcError(f"accept backlog of {name!r} is full")
        return Connection(self, send_ring=c2s, recv_ring=s2c, is_server=False)
