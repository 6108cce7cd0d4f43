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
from ...telemetry import TELEMETRY as _TEL, span as _span
from ..backoff import BackoffPolicy
from ..params import OsCosts

_SUB = "core.ipc"
from .registry import Endpoint, NameRegistry
from .shared_buffer import BufferPool, BufferRef


class RpcError(Exception):
    pass


class RpcDeadlineExceeded(RpcError):
    """The caller's deadline had already passed before the call started.

    Fail-fast: nothing was migrated and no service time was charged —
    the caller only learns (for free, it read its own clock) that the
    budget is gone.
    """

    def __init__(self, service: str, deadline_ns: float, now_ns: float) -> None:
        super().__init__(
            f"rpc {service!r}: deadline {deadline_ns:.0f}ns already passed "
            f"at call time ({now_ns:.0f}ns)"
        )
        self.service = service
        self.deadline_ns = deadline_ns
        self.now_ns = now_ns


class RpcTimeout(RpcError):
    """The service ran past the caller's deadline — a *charged* timeout.

    Thread-migration RPC runs the service on the caller's own core, so
    by the time the overrun is observable the time has already been
    spent: the caller's clock carries the full service cost and the
    result is discarded.  ``now_ns - deadline_ns`` is how far past the
    deadline the call landed.
    """

    def __init__(self, service: str, deadline_ns: float, now_ns: float) -> None:
        super().__init__(
            f"rpc {service!r}: completed at {now_ns:.0f}ns, "
            f"{now_ns - deadline_ns:.0f}ns past deadline {deadline_ns:.0f}ns"
        )
        self.service = service
        self.deadline_ns = deadline_ns
        self.now_ns = now_ns


@dataclass
class RpcStats:
    calls: int = 0
    context_fetches: int = 0
    local_cache_hits: int = 0
    timeouts: int = 0
    deadline_rejects: int = 0
    retries: int = 0


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
        #: active deadlines, innermost last — nested calls inherit the
        #: tightest enclosing deadline (deadline *propagation*)
        self._deadline_stack: list = []

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

    def unregister(self, ctx: NodeContext, name: str) -> bool:
        self._code_cache.pop(ctx.node_id, {}).pop(name, None)
        return self.registry.unbind(ctx, f"rpc:{name}")

    # -- caller side ----------------------------------------------------------------------

    def current_deadline(self) -> Optional[float]:
        """The tightest deadline of any in-flight call (absolute sim-ns)."""
        return self._deadline_stack[-1] if self._deadline_stack else None

    def _effective_deadline(self, deadline_ns: Optional[float]) -> Optional[float]:
        inherited = self.current_deadline()
        if deadline_ns is None:
            return inherited
        if inherited is None:
            return float(deadline_ns)
        return min(float(deadline_ns), inherited)

    def call(
        self,
        ctx: NodeContext,
        name: str,
        *args: Any,
        deadline_ns: Optional[float] = None,
        **kwargs: Any,
    ) -> Any:
        """Invoke ``name`` by thread migration from ``ctx``'s node.

        ``deadline_ns`` is an *absolute* simulated-clock deadline.  It
        propagates: services that issue nested ``call``\\ s inherit the
        tightest enclosing deadline automatically.  A call whose
        deadline has already passed fails fast
        (:class:`RpcDeadlineExceeded`, nothing charged); a call that
        *runs past* its deadline raises :class:`RpcTimeout` with the
        full service time already charged to the caller's clock — on a
        migration RPC the caller's core did the work, so the timeout
        cannot un-spend it.
        """
        effective = self._effective_deadline(deadline_ns)
        if effective is not None and ctx.now() >= effective:
            self.stats.deadline_rejects += 1
            if _TEL.enabled:
                _TEL.count(ctx.node_id, _SUB, "rpc.deadline_rejects")
            raise RpcDeadlineExceeded(name, effective, ctx.now())
        if not _TEL.enabled:
            handler = self._resolve_code(ctx, name)
            self.stats.calls += 1
            ctx.advance(self.costs.addr_space_switch_ns)  # migrate in
            self._deadline_stack.append(effective)
            try:
                result = handler(ctx, *args, **kwargs)
            finally:
                self._deadline_stack.pop()
                ctx.advance(self.costs.addr_space_switch_ns)  # migrate back
            return self._check_timeout(ctx, name, effective, result)
        before = ctx.now()
        with _span("ipc.rpc.call", ctx=ctx, service=name):
            handler = self._resolve_code(ctx, name)
            self.stats.calls += 1
            ctx.advance(self.costs.addr_space_switch_ns)  # migrate in
            self._deadline_stack.append(effective)
            try:
                result = handler(ctx, *args, **kwargs)
            finally:
                self._deadline_stack.pop()
                ctx.advance(self.costs.addr_space_switch_ns)  # migrate back
                reg = _TEL.registry
                reg.inc(ctx.node_id, _SUB, "rpc.calls")
                reg.observe(ctx.node_id, _SUB, "rpc.migration_ns", ctx.now() - before)
            return self._check_timeout(ctx, name, effective, result)

    def _check_timeout(
        self, ctx: NodeContext, name: str, deadline_ns: Optional[float], result: Any
    ) -> Any:
        if deadline_ns is not None and ctx.now() > deadline_ns:
            self.stats.timeouts += 1
            if _TEL.enabled:
                _TEL.count(ctx.node_id, _SUB, "rpc.timeouts")
            raise RpcTimeout(name, deadline_ns, ctx.now())
        return result

    def call_with_retry(
        self,
        ctx: NodeContext,
        name: str,
        *args: Any,
        backoff: Optional[BackoffPolicy] = None,
        deadline_ns: Optional[float] = None,
        retry_on: tuple = (RpcTimeout,),
        **kwargs: Any,
    ) -> Any:
        """Call with bounded, clock-charged retries on retryable errors.

        Each failed attempt charges its backoff delay to the caller's
        simulated clock (the spin a real retry loop pays) before the
        next try; the deadline, when given, bounds the *whole* budget —
        once it passes, the last error propagates.

        With tracing on, the whole loop runs under one ``ipc.rpc.retry``
        span so every attempt's ``ipc.rpc.call`` span chains to the same
        parent — the retry sequence survives in the trace instead of
        scattering as siblings of whatever else was open.
        """
        policy = backoff if backoff is not None else BackoffPolicy()
        if not _TEL.tracing:
            return self._retry_loop(
                ctx, name, args, kwargs, policy, deadline_ns, retry_on
            )
        with _span("ipc.rpc.retry", ctx=ctx, service=name):
            return self._retry_loop(
                ctx, name, args, kwargs, policy, deadline_ns, retry_on
            )

    def _retry_loop(
        self,
        ctx: NodeContext,
        name: str,
        args: tuple,
        kwargs: dict,
        policy: BackoffPolicy,
        deadline_ns: Optional[float],
        retry_on: tuple,
    ) -> Any:
        attempt = 0
        while True:
            try:
                return self.call(ctx, name, *args, deadline_ns=deadline_ns, **kwargs)
            except retry_on as exc:
                if attempt >= policy.max_attempts:
                    raise
                if deadline_ns is not None and ctx.now() >= deadline_ns:
                    raise
                delay = policy.delay_ns(attempt, name, ctx.node_id)
                ctx.advance(delay)
                attempt += 1
                self.stats.retries += 1
                if _TEL.enabled:
                    _TEL.count(ctx.node_id, _SUB, "rpc.retries")
                del exc

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

    def warm(self, ctx: NodeContext, name: str) -> None:
        """Prefetch a service's code context (fast scale-up path)."""
        self._resolve_code(ctx, name)
