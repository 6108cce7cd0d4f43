"""Delegation-based synchronisation (§3.2; flat combining [20], ffwd [51]).

The shared object is owned by one node; other nodes write requests into
per-client mailboxes in global memory and the owner executes them on
their behalf against its *local* (fast, private) state.  Contention on
shared memory is restricted to one request/response slot per client —
no shared data structure is ever traversed remotely.

Because the simulator drives nodes cooperatively, the owner must be
polled explicitly (``poll``); ``call`` is a convenience that performs
the whole round trip when the caller holds both contexts, charging
clocks causally at each hand-off.

Mailbox layout per client node::

    +0    request sequence   (atomic; client bumps after writing payload)
    +8    response sequence  (atomic; owner bumps after writing response)
    +16   request timestamp  (f64 bits)
    +24   response timestamp (f64 bits)
    +32   request length  (u32) + pad
    +40   response length (u32) + pad
    +48   request payload
    +48+P response payload
"""

from __future__ import annotations

import struct
from typing import Callable, Optional

from ...rack.machine import NodeContext

_SLOT_META = 48
#: Software cost the owner charges per request it serves.
HANDLER_COST_NS = 50.0


class DelegationError(Exception):
    pass


class DelegationService:
    """One delegated object: an owner node plus per-client mailboxes."""

    def __init__(
        self,
        base: int,
        owner_node: int,
        n_nodes: int,
        handler: Callable[[bytes], bytes],
        payload_capacity: int = 1024,
    ) -> None:
        self.base = base
        self.owner_node = owner_node
        self.n_nodes = n_nodes
        self.handler = handler
        self.payload_capacity = payload_capacity
        self.slot_size = _align64(_SLOT_META + 2 * payload_capacity)

    @staticmethod
    def region_size(n_nodes: int, payload_capacity: int = 1024) -> int:
        return n_nodes * _align64(_SLOT_META + 2 * payload_capacity)

    def format(self, ctx: NodeContext) -> "DelegationService":
        for node in range(self.n_nodes):
            slot = self._slot(node)
            ctx.atomic_store(slot, 0)
            ctx.atomic_store(slot + 8, 0)
        return self

    # -- client side -------------------------------------------------------------

    def submit(self, ctx: NodeContext, payload: bytes) -> int:
        """Place a request in this node's mailbox; returns its sequence.

        The previous request must have been answered (one outstanding
        request per client, like ffwd).
        """
        if len(payload) > self.payload_capacity:
            raise DelegationError(f"request of {len(payload)} B exceeds slot capacity")
        slot = self._slot(ctx.node_id)
        req_seq = ctx.atomic_load(slot)
        resp_seq = ctx.atomic_load(slot + 8)
        if req_seq != resp_seq:
            raise DelegationError(f"node {ctx.node_id} already has request {req_seq} in flight")
        meta = struct.pack("<dI4x", ctx.now(), len(payload))
        ctx.store(slot + 16, meta[:8])  # request timestamp
        ctx.store(slot + 32, meta[8:])  # request length
        ctx.store(slot + 48, payload)
        ctx.flush(slot + 16, 32 + len(payload))
        ctx.fence()
        ctx.atomic_store(slot, req_seq + 1)
        return req_seq + 1

    def try_response(self, ctx: NodeContext, seq: int) -> Optional[bytes]:
        """Fetch the response to request ``seq`` if the owner answered."""
        slot = self._slot(ctx.node_id)
        if ctx.atomic_load(slot + 8) < seq:
            return None
        ctx.invalidate(slot + 24, 24)
        ts = struct.unpack("<d", ctx.load(slot + 24, 8))[0]
        length = struct.unpack("<I", ctx.load(slot + 40, 4))[0]
        resp_off = slot + 48 + self.payload_capacity
        ctx.invalidate(resp_off, length)
        data = ctx.load(resp_off, length)
        ctx.node.clock.sync_to(ts)
        return data

    # -- owner side ----------------------------------------------------------------

    def poll(self, owner_ctx: NodeContext) -> int:
        """Serve every pending request; returns how many were served."""
        if owner_ctx.node_id != self.owner_node:
            raise DelegationError(
                f"node {owner_ctx.node_id} polling a service owned by {self.owner_node}"
            )
        served = 0
        for node in range(self.n_nodes):
            slot = self._slot(node)
            req_seq = owner_ctx.atomic_load(slot)
            resp_seq = owner_ctx.atomic_load(slot + 8)
            if req_seq == resp_seq:
                continue
            owner_ctx.invalidate(slot + 16, 24)
            req_ts = struct.unpack("<d", owner_ctx.load(slot + 16, 8))[0]
            length = struct.unpack("<I", owner_ctx.load(slot + 32, 4))[0]
            owner_ctx.invalidate(slot + 48, length)
            request = owner_ctx.load(slot + 48, length)
            owner_ctx.node.clock.sync_to(req_ts)
            owner_ctx.advance(HANDLER_COST_NS)
            response = self.handler(request)
            if len(response) > self.payload_capacity:
                raise DelegationError("handler response exceeds slot capacity")
            resp_off = slot + 48 + self.payload_capacity
            owner_ctx.store(slot + 24, struct.pack("<d", owner_ctx.now()))
            owner_ctx.store(slot + 40, struct.pack("<I", len(response)))
            owner_ctx.store(resp_off, response)
            owner_ctx.flush(slot + 24, 24)
            owner_ctx.flush(resp_off, len(response))
            owner_ctx.fence()
            owner_ctx.atomic_store(slot + 8, req_seq)
            served += 1
        return served

    # -- synchronous convenience --------------------------------------------------------

    def call(self, client_ctx: NodeContext, owner_ctx: NodeContext, payload: bytes) -> bytes:
        """Submit, have the owner poll, and collect the response."""
        seq = self.submit(client_ctx, payload)
        self.poll(owner_ctx)
        response = self.try_response(client_ctx, seq)
        if response is None:
            raise DelegationError("owner polled but produced no response")
        return response

    def _slot(self, node_id: int) -> int:
        if not 0 <= node_id < self.n_nodes:
            raise DelegationError(f"node {node_id} outside service of {self.n_nodes} nodes")
        return self.base + node_id * self.slot_size


def _align64(value: int) -> int:
    return (value + 63) & ~63
