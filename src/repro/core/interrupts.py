"""Rack-wide interrupts (§5 "Open Challenges", implemented in software).

The paper lists three missing interrupt capabilities and notes they need
hardware support; FlacOS can still provide them today over shared
memory, at polling latency:

* **IPI** — inter-processor interrupts to cores on *other* nodes: each
  node owns a pending-vector bitmask word in global memory; senders OR
  a vector bit in with CAS, receivers drain it at safe points.
* **mwait** — waiting on a global-memory word: :func:`mwait` parks a
  node until a word changes (polling with backoff, charging simulated
  time), :func:`wake` is the store that releases it.
* **Interrupt routing** — device interrupts routed to any core on any
  node: a routing table in shared memory plus a rack-wide
  ``irq_balance`` that re-routes to the least-loaded node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..rack.machine import NodeContext

N_VECTORS = 64


class InterruptError(Exception):
    pass


class MwaitTimeout(Exception):
    """The watched word never changed within the polling budget."""


@dataclass
class IpiStats:
    sent: int = 0
    delivered: int = 0
    spurious_polls: int = 0


class InterruptController:
    """Software rack-wide interrupt delivery over shared doorbells.

    Layout at ``base``: one pending-bitmask word per node.
    """

    def __init__(self, base: int, n_nodes: int) -> None:
        self.base = base
        self.n_nodes = n_nodes
        #: node -> vector -> handler (handlers are node-local state)
        self._handlers: Dict[int, Dict[int, Callable[[NodeContext, int], None]]] = {}
        self.stats = IpiStats()

    @staticmethod
    def region_size(n_nodes: int) -> int:
        return 8 * n_nodes

    def format(self, ctx: NodeContext) -> "InterruptController":
        for node in range(self.n_nodes):
            ctx.atomic_store(self._pending_addr(node), 0)
        return self

    # -- registration -----------------------------------------------------------

    def register(
        self, node_id: int, vector: int, handler: Callable[[NodeContext, int], None]
    ) -> None:
        self._check_vector(vector)
        self._handlers.setdefault(node_id, {})[vector] = handler

    # -- sending ------------------------------------------------------------------

    def send_ipi(self, ctx: NodeContext, target_node: int, vector: int) -> None:
        """Raise ``vector`` on ``target_node`` (cross-node IPI)."""
        self._check_vector(vector)
        if not 0 <= target_node < self.n_nodes:
            raise InterruptError(f"no node {target_node}")
        addr = self._pending_addr(target_node)
        mask = 1 << vector
        while True:  # atomic OR via CAS
            current = ctx.atomic_load(addr)
            if current & mask:
                break  # already pending; IPIs coalesce
            swapped, _ = ctx.cas(addr, current, current | mask)
            if swapped:
                break
        self.stats.sent += 1

    def broadcast(self, ctx: NodeContext, vector: int, include_self: bool = False) -> int:
        """Send ``vector`` to every (other) node; returns targets hit."""
        sent = 0
        for node in range(self.n_nodes):
            if node == ctx.node_id and not include_self:
                continue
            self.send_ipi(ctx, node, vector)
            sent += 1
        return sent

    # -- receiving ----------------------------------------------------------------------

    def poll(self, ctx: NodeContext) -> List[int]:
        """Drain and dispatch this node's pending vectors (safe point)."""
        pending = ctx.swap(self._pending_addr(ctx.node_id), 0)
        if pending == 0:
            self.stats.spurious_polls += 1
            return []
        vectors = [v for v in range(N_VECTORS) if pending & (1 << v)]
        handlers = self._handlers.get(ctx.node_id, {})
        for vector in vectors:
            handler = handlers.get(vector)
            if handler is not None:
                handler(ctx, vector)
            self.stats.delivered += 1
        return vectors

    def _pending_addr(self, node_id: int) -> int:
        return self.base + node_id * 8

    @staticmethod
    def _check_vector(vector: int) -> None:
        if not 0 <= vector < N_VECTORS:
            raise InterruptError(f"vector {vector} outside [0, {N_VECTORS})")


def mwait(
    ctx: NodeContext,
    addr: int,
    expected: int,
    *,
    max_polls: int = 10_000,
    backoff_ns: float = 100.0,
    max_backoff_ns: float = 5_000.0,
) -> int:
    """Wait until the word at ``addr`` differs from ``expected``.

    The monitor/mwait idiom of §5: the waiter burns (simulated) time in
    an exponential-backoff poll rather than an interconnect storm.
    Returns the new value.  Raises :class:`MwaitTimeout` when nothing
    changes — in this cooperative simulator the writer must be driven
    between polls, so unbounded blocking would deadlock the host.
    """
    delay = backoff_ns
    for _ in range(max_polls):
        value = ctx.atomic_load(addr)
        if value != expected:
            return value
        ctx.advance(delay)
        delay = min(delay * 2, max_backoff_ns)
    raise MwaitTimeout(f"word at {addr:#x} stayed {expected} after {max_polls} polls")


def wake(ctx: NodeContext, addr: int, value: int) -> None:
    """The paired store that releases an mwait-er."""
    ctx.atomic_store(addr, value)


class IrqBalancer:
    """Rack-wide interrupt routing with load balancing (§5's irq_balance).

    The routing table lives in shared memory (irq -> node word), so any
    node can deliver a device interrupt to wherever it is currently
    routed.  ``rebalance`` re-routes the noisiest IRQs to the
    least-loaded nodes based on delivered counts.
    """

    def __init__(self, table_base: int, n_irqs: int, controller: InterruptController) -> None:
        self.table_base = table_base
        self.n_irqs = n_irqs
        self.controller = controller
        #: delivered interrupt counts per (irq)
        self._irq_counts: Dict[int, int] = {}

    @staticmethod
    def region_size(n_irqs: int) -> int:
        return 8 * n_irqs

    def format(self, ctx: NodeContext) -> "IrqBalancer":
        for irq in range(self.n_irqs):
            ctx.atomic_store(self._route_addr(irq), irq % self.controller.n_nodes)
        return self

    def route_of(self, ctx: NodeContext, irq: int) -> int:
        return ctx.atomic_load(self._route_addr(self._check(irq)))

    def set_route(self, ctx: NodeContext, irq: int, node_id: int) -> None:
        if not 0 <= node_id < self.controller.n_nodes:
            raise InterruptError(f"no node {node_id}")
        ctx.atomic_store(self._route_addr(self._check(irq)), node_id)

    def raise_irq(self, ctx: NodeContext, irq: int, vector: int) -> int:
        """Deliver a device interrupt to its currently routed node."""
        target = self.route_of(ctx, irq)
        self.controller.send_ipi(ctx, target, vector)
        self._irq_counts[irq] = self._irq_counts.get(irq, 0) + 1
        return target

    def rebalance(self, ctx: NodeContext) -> Dict[int, int]:
        """Spread the busiest IRQs across nodes; returns irq -> new node."""
        by_load = sorted(self._irq_counts.items(), key=lambda kv: -kv[1])
        node_load: Dict[int, int] = {n: 0 for n in range(self.controller.n_nodes)}
        moves: Dict[int, int] = {}
        for irq, count in by_load:
            target = min(node_load, key=lambda n: (node_load[n], n))
            node_load[target] += count
            if self.route_of(ctx, irq) != target:
                self.set_route(ctx, irq, target)
                moves[irq] = target
        return moves

    def _route_addr(self, irq: int) -> int:
        return self.table_base + irq * 8

    def _check(self, irq: int) -> int:
        if not 0 <= irq < self.n_irqs:
            raise InterruptError(f"irq {irq} outside [0, {self.n_irqs})")
        return irq
