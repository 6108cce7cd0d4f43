"""Migration-based RPC with shared code contexts (§3.5).

A FlacOS RPC does not move a message to the server's thread — it moves
the *caller's thread* into the service: switch address space, run the
service code, switch back ([16, 41, 58]).  The enabling trick on a rack
is the **shared code context**: the service's code and entry metadata
live in global memory, so *any* node can execute the service locally.
The cost of a call is two address-space switches plus whatever global
state the service touches — no stack traversal, no copies, no wire.

Code contexts are pickled callables stored in shared buffers.  Nodes
fetch and cache a context on first call (the paper's fast scale-up and
process-migration path piggybacks on the same object).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ...rack.machine import NodeContext, RackMachine
from ...telemetry import span as _span
from ..params import OsCosts
from .registry import Endpoint, NameRegistry
from .shared_buffer import BufferPool, BufferRef


class RpcError(Exception):
    pass


@dataclass
class RpcStats:
    calls: int = 0
    context_fetches: int = 0
    local_cache_hits: int = 0


class RpcSystem:
    """Registry + executor for migration-based RPC services."""

    def __init__(
        self,
        machine: RackMachine,
        registry: NameRegistry,
        buffers: BufferPool,
        costs: Optional[OsCosts] = None,
    ) -> None:
        self.machine = machine
        self.registry = registry
        self.buffers = buffers
        self.costs = costs or OsCosts()
        #: per-node cache of fetched code contexts: node -> name -> callable
        self._code_cache: Dict[int, Dict[str, Callable]] = {}
        self.stats = RpcStats()

    # -- service side ------------------------------------------------------------------

    def register(self, ctx: NodeContext, name: str, handler: Callable[..., Any]) -> None:
        """Publish ``handler`` as a rack-wide service.

        The handler must be picklable (module-level function or functools
        partial over picklable state handles).  Its first argument is the
        *calling* node's context — service state accesses are charged to
        whoever migrated in, which is the point of thread migration.
        """
        blob = pickle.dumps(handler, protocol=pickle.HIGHEST_PROTOCOL)
        ref = self.buffers.put(ctx, blob)
        self.registry.bind(
            ctx,
            Endpoint(
                name=f"rpc:{name}",
                node_id=ctx.node_id,
                accept_ring_addr=0,
                meta=ref.pack(),
            ),
        )

    # -- caller side ----------------------------------------------------------------------

    def call(self, ctx: NodeContext, name: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke ``name`` by thread migration from ``ctx``'s node: the
        caller's clock pays the two address-space switches and whatever
        the handler touches."""
        with _span("ipc.rpc.call", ctx=ctx, service=name):
            handler = self._resolve_code(ctx, name)
            self.stats.calls += 1
            ctx.advance(self.costs.addr_space_switch_ns)  # migrate in
            try:
                return handler(ctx, *args, **kwargs)
            finally:
                ctx.advance(self.costs.addr_space_switch_ns)  # migrate back

    def _resolve_code(self, ctx: NodeContext, name: str) -> Callable:
        node_cache = self._code_cache.setdefault(ctx.node_id, {})
        cached = node_cache.get(name)
        if cached is not None:
            self.stats.local_cache_hits += 1
            return cached
        endpoint = self.registry.resolve(ctx, f"rpc:{name}")
        if endpoint.meta is None:
            raise RpcError(f"service {name!r} has no code context")
        ref = BufferRef.unpack(endpoint.meta)
        blob = self.buffers.get(ctx, ref)  # pull the shared code context
        handler = pickle.loads(blob)
        node_cache[name] = handler
        self.stats.context_fetches += 1
        return handler
