"""Kernel TCP/IP stack simulation — the networking baseline of Figure 4.

Every message pays, per side, the full "data center tax" the paper
derides: a syscall, an skb allocation per packet, a user/kernel copy of
every byte, per-packet protocol processing, and a receiver wakeup.
Delivery is in-order and reliable (we model the cost structure, not
loss recovery).  Payload bytes live host-side — this stack does *not*
use rack shared memory; that is exactly what FlacOS removes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from ..rack.machine import NodeContext
from .ethernet import EthernetLink
from .params import TcpCosts


class TcpError(Exception):
    pass


@dataclass
class _SocketBuffer:
    """Receive queue of one endpoint: reassembled messages."""

    messages: Deque[Tuple[bytes, float]] = field(default_factory=deque)


@dataclass
class TcpStats:
    messages_sent: int = 0
    packets_sent: int = 0
    bytes_copied: int = 0
    skbs_allocated: int = 0


class TcpConnection:
    """One established TCP connection between two nodes."""

    def __init__(self, network: "TcpNetwork", a_node: int, b_node: int) -> None:
        self.network = network
        self._ends: Dict[int, _SocketBuffer] = {a_node: _SocketBuffer(), b_node: _SocketBuffer()}
        self._peer = {a_node: b_node, b_node: a_node}

    def send(self, ctx: NodeContext, data: bytes) -> None:
        """Blocking send: charges the full TX path and enqueues at the peer."""
        costs = self.network.costs
        link = self.network.link_between(ctx.node_id, self._peer[ctx.node_id])
        stats = self.network.stats
        ctx.advance(costs.syscall_ns)
        ctx.advance(len(data) * costs.copy_ns_per_byte)  # user -> kernel
        stats.bytes_copied += len(data)
        packets = link.packet_count(len(data))
        per_packet_ns = costs.skb_alloc_ns + costs.tx_stack_ns
        for _ in range(packets):  # one add per packet: the clock rounds as before
            ctx.advance(per_packet_ns)
        stats.skbs_allocated += packets
        stats.packets_sent += packets
        arrival = link.schedule(ctx.now(), len(data))
        self._ends[self._peer[ctx.node_id]].messages.append((bytes(data), arrival))
        stats.messages_sent += 1

    def recv(self, ctx: NodeContext) -> Optional[bytes]:
        """Receive one message; None when nothing has arrived.

        Charges the RX path: per-packet protocol processing, the process
        wakeup, and the kernel -> user copy.
        """
        costs = self.network.costs
        buffer = self._ends[ctx.node_id]
        if not buffer.messages:
            return None
        data, arrival = buffer.messages.popleft()
        ctx.node.clock.sync_to(arrival)
        link = self.network.link_between(ctx.node_id, self._peer[ctx.node_id])
        for _ in range(link.packet_count(len(data))):
            ctx.advance(costs.rx_stack_ns)
        ctx.advance(costs.wakeup_ns)
        ctx.advance(costs.syscall_ns)
        ctx.advance(len(data) * costs.copy_ns_per_byte)  # kernel -> user
        self.network.stats.bytes_copied += len(data)
        return data

    def pending(self, ctx: NodeContext) -> int:
        return len(self._ends[ctx.node_id].messages)


class TcpNetwork:
    """Direct-connected Ethernet between every node pair (the testbed)."""

    def __init__(self, costs: Optional[TcpCosts] = None) -> None:
        self.costs = costs or TcpCosts()
        self._links: Dict[Tuple[int, int], EthernetLink] = {}
        self._listeners: Dict[str, int] = {}
        self.stats = TcpStats()

    def link_between(self, a: int, b: int) -> EthernetLink:
        key = (min(a, b), max(a, b))
        link = self._links.get(key)
        if link is None:
            link = EthernetLink()
            self._links[key] = link
        return link

    def listen(self, ctx: NodeContext, name: str) -> None:
        if name in self._listeners:
            raise TcpError(f"{name!r} already bound")
        self._listeners[name] = ctx.node_id

    def connect(self, ctx: NodeContext, name: str) -> TcpConnection:
        """Connect by name; charges a SYN/SYN-ACK/ACK handshake."""
        server = self._listeners.get(name)
        if server is None:
            raise TcpError(f"no listener named {name!r}")
        link = self.link_between(ctx.node_id, server)
        handshake = 3 * (self.costs.tx_stack_ns + link.wire_ns(0) + self.costs.rx_stack_ns)
        ctx.advance(self.costs.syscall_ns + handshake)
        return TcpConnection(self, ctx.node_id, server)
