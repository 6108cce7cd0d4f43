"""RDMA verbs simulation — the disaggregated-system transport (Figure 1a).

Kernel-bypass removes the syscall/skb/wakeup taxes but keeps per-message
NIC processing and a PCIe crossing per byte, and — the paper's
structural point — still *transfers* data instead of sharing it: every
byte is moved between private memories rather than accessed in place.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from ..rack.machine import NodeContext
from .ethernet import EthernetLink
from .params import RdmaCosts


@dataclass
class RdmaStats:
    sends: int = 0
    bytes_transferred: int = 0


class RdmaQueuePair:
    """A connected QP between two nodes (RC semantics)."""

    def __init__(self, network: "RdmaNetwork", a_node: int, b_node: int) -> None:
        self.network = network
        self._recv_queues: Dict[int, Deque[Tuple[bytes, float]]] = {
            a_node: deque(),
            b_node: deque(),
        }
        self._peer = {a_node: b_node, b_node: a_node}

    # -- two-sided ----------------------------------------------------------------

    def post_send(self, ctx: NodeContext, data: bytes) -> None:
        costs = self.network.costs
        link = self.network.link_between(ctx.node_id, self._peer[ctx.node_id])
        ctx.advance(costs.post_ns + costs.nic_ns)
        ctx.advance(len(data) * costs.pcie_ns_per_byte)
        arrival = link.schedule(ctx.now(), len(data)) + costs.nic_ns
        self._recv_queues[self._peer[ctx.node_id]].append((bytes(data), arrival))
        self.network.stats.sends += 1
        self.network.stats.bytes_transferred += len(data)

    def poll_recv(self, ctx: NodeContext) -> Optional[bytes]:
        costs = self.network.costs
        queue = self._recv_queues[ctx.node_id]
        ctx.advance(costs.poll_cq_ns)
        if not queue:
            return None
        data, arrival = queue.popleft()
        ctx.node.clock.sync_to(arrival)
        ctx.advance(len(data) * costs.pcie_ns_per_byte)
        return data


class RdmaNetwork:
    """RDMA fabric over the same physical links as TCP."""

    def __init__(self, costs: Optional[RdmaCosts] = None) -> None:
        self.costs = costs or RdmaCosts()
        self._links: Dict[Tuple[int, int], EthernetLink] = {}
        self.stats = RdmaStats()

    def link_between(self, a: int, b: int) -> EthernetLink:
        key = (min(a, b), max(a, b))
        link = self._links.get(key)
        if link is None:
            link = EthernetLink()
            self._links[key] = link
        return link

    def create_qp(self, a_node: int, b_node: int) -> RdmaQueuePair:
        return RdmaQueuePair(self, a_node, b_node)
