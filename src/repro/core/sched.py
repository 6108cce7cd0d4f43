"""Rack-wide scheduling over shared memory (Figure 3's control plane).

The serverless case study assumes FlacOS provides rack-level
scheduling.  This is it: per-node load counters in global memory
(atomic, so placement decisions read fresh rack-wide load) and
per-(submitter, executor) task rings, also in global memory — so a
task queued to a node *survives that node's crash* in the shared pool.
Task bodies are node-local callables registered in a table; what
crosses nodes is the task id and a payload descriptor.

Placement policy: least-loaded live node, with a home-node affinity
bonus (tasks prefer where their state lives — boxes, page-cache
residency).

Two scale-out behaviours layered on the original design:

* **backpressure, not crashes** — a full destination ring makes
  :meth:`RackScheduler.submit` retry with exponential backoff charged
  to the *simulated* clock; only when the bounded retries drain
  nothing does it raise :class:`SchedulerBackpressure`, so the
  submitter observes saturation as latency first and an explicit
  signal second, never a bare crash;
* **event-driven drains** — every submission schedules a drain
  wake-up for the destination node on the kernel's
  :class:`~repro.core.events.EventCore`, :data:`DISPATCH_NS` after the
  later of the core's and the destination's clocks (the IPI delivery
  cost), instead of each node polling ``run_pending``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from ..flacdk.structures import SpscRing
from ..rack.machine import NodeContext, RackMachine
from ..telemetry import TELEMETRY as _TEL
from .backoff import BackoffPolicy
from .events import EventCore
from .params import OsCosts

_RING_SLOTS = 32
_SLOT_BYTES = 24  # task id + payload length + inline payload offset
#: simulated delay between a submission and its drain wake-up
DISPATCH_NS = 2_000.0

#: Telemetry subsystem for scheduler events.
_SUB = "core.sched"


class SchedulerError(Exception):
    pass


class SchedulerBackpressure(SchedulerError):
    """A destination queue stayed full through every bounded retry.

    Carries what the submitter needs to react (shed, reroute, or
    escalate): the saturated ``target`` node, how many ``attempts``
    were made, and the simulated ``waited_ns`` charged to its clock.
    """

    def __init__(self, target: int, src: int, attempts: int, waited_ns: float) -> None:
        super().__init__(
            f"node {target}'s queue from {src} still full after "
            f"{attempts} backoff retries ({waited_ns:.0f}ns waited)"
        )
        self.target = target
        self.attempts = attempts
        self.waited_ns = waited_ns


@dataclass
class TaskRecord:
    task_id: int
    fn: Callable[[NodeContext, bytes], object]
    payload: bytes
    cost_ns: float
    submitted_by: int
    result: Optional[object] = None
    done: bool = False
    executed_on: Optional[int] = None


class RackScheduler:
    """Least-loaded placement with crash-survivable queues."""

    #: bounded submit retries on a full destination ring
    max_submit_retries = 4

    def __init__(
        self,
        machine: RackMachine,
        events: EventCore,
        ctrl_base: int,
        ring_alloc: Callable[[NodeContext, int], int],
        costs: Optional[OsCosts] = None,
    ) -> None:
        self.machine = machine
        self._events = events
        self.costs = costs or OsCosts()
        #: shared retry shape (repro.core.backoff): exact exponential,
        #: no jitter — the historical submit behaviour, now one policy
        #: object instead of constants duplicated across retry loops
        self.backoff = BackoffPolicy(
            base_ns=self.costs.submit_backoff_ns,
            multiplier=2.0,
            max_attempts=self.max_submit_retries,
            jitter=0.0,
        )
        self.n_nodes = len(machine.nodes)
        #: per-node load cells: ctrl_base + node*8
        self.ctrl_base = ctrl_base
        #: memoized load-cell addresses (satellite of the batched read:
        #: pick_node is hot, so the address arithmetic is hoisted here)
        self._load_addrs: List[int] = [ctrl_base + n * 8 for n in range(self.n_nodes)]
        boot = machine.context(0)
        for node in range(self.n_nodes):
            boot.atomic_store(self._load_addrs[node], 0)
        #: rings[src][dst]: SPSC from submitter src to executor dst
        self._rings: List[List[SpscRing]] = []
        for src in range(self.n_nodes):
            row = []
            for dst in range(self.n_nodes):
                addr = ring_alloc(boot, SpscRing.region_size(_RING_SLOTS, _SLOT_BYTES))
                row.append(SpscRing(addr, _RING_SLOTS, _SLOT_BYTES).format(boot))
            self._rings.append(row)
        #: task table (node-local bodies; ids are rack-global)
        self._tasks: Dict[int, TaskRecord] = {}
        self._next_task = 1
        #: destinations with a drain wake-up already on the heap
        self._drain_pending: Set[int] = set()

    @staticmethod
    def ctrl_size(n_nodes: int) -> int:
        return 8 * n_nodes

    # -- event-driven drains ---------------------------------------------------------

    def _notify(self, target: int) -> None:
        """Schedule (at most one pending) drain of ``target``'s queues."""
        if target in self._drain_pending:
            return
        when = max(self._events.now_ns, self.machine.now(target)) + DISPATCH_NS
        self._drain_pending.add(target)
        self._events.at(when, lambda t=target: self._drain_event(t), node=target)

    def _drain_event(self, target: int) -> None:
        self._drain_pending.discard(target)
        node = self.machine.nodes.get(target)
        if node is None or not node.alive:
            return  # the queued tasks stay in the shared rings
        ctx = self.machine.context(target)
        self.run_pending(ctx, max_tasks=64)
        if self.load_of(ctx, target) > 0:
            self._notify(target)  # more queued than one drain's budget

    # -- placement -----------------------------------------------------------------

    def load_of(self, ctx: NodeContext, node: int) -> int:
        return ctx.atomic_load(self._load_addr(node))

    def pick_node(self, ctx: NodeContext, affinity: Optional[int] = None) -> int:
        """Least-loaded live node; ties (and near-ties) favour affinity.

        The per-node load cells are read through the bulk atomics path
        (one planned gather instead of one ``atomic_load`` round trip
        per node) — identical charged nanoseconds, an order less Python
        per placement decision on wide racks.
        """
        ctx.advance(self.costs.schedule_ns)
        live = [node for node, n in self.machine.nodes.items() if n.alive]
        if not live:
            raise SchedulerError("no live nodes")
        addrs = [self._load_addrs[node] for node in live]
        values = ctx.atomic_load_many(addrs)
        loads = dict(zip(live, values))
        best = min(loads.values())
        if affinity is not None and loads.get(affinity, best + 2) <= best + 1:
            return affinity
        return min(loads, key=lambda n: (loads[n], n))

    # -- submission ------------------------------------------------------------------

    def submit(
        self,
        ctx: NodeContext,
        fn: Callable[[NodeContext, bytes], object],
        payload: bytes = b"",
        cost_ns: float = 100_000.0,
        affinity: Optional[int] = None,
    ) -> int:
        """Queue a task on the least-loaded node; returns the task id.

        A full destination ring is *backpressure*, not a crash: the
        submitter retries with exponential backoff charged to its
        simulated clock (modelling the spin-wait a real submitter
        pays), and only after :attr:`max_submit_retries` failed
        attempts raises :class:`SchedulerBackpressure`.
        """
        target = self.pick_node(ctx, affinity=affinity)
        task_id = self._next_task
        self._next_task += 1
        ring = self._rings[ctx.node_id][target]
        slot = struct.pack("<QQQ", task_id, len(payload), 0)
        waited_ns = 0.0
        attempts = 0
        while not ring.try_push(ctx, slot):
            if attempts >= self.backoff.max_attempts:
                self._next_task -= 1  # single-threaded sim: id is unused
                if _TEL.enabled:
                    _TEL.count(ctx.node_id, _SUB, "submit.backpressure")
                raise SchedulerBackpressure(target, ctx.node_id, attempts, waited_ns)
            delay = self.backoff.delay_ns(attempts)
            ctx.advance(delay)
            waited_ns += delay
            attempts += 1
            if _TEL.enabled:
                _TEL.count(ctx.node_id, _SUB, "submit.retry")
        self._tasks[task_id] = TaskRecord(
            task_id, fn, payload, cost_ns, submitted_by=ctx.node_id
        )
        ctx.fetch_add(self._load_addr(target), 1)
        self._notify(target)
        return task_id

    # -- execution ---------------------------------------------------------------------

    def run_pending(self, ctx: NodeContext, max_tasks: int = 64) -> int:
        """Drain and execute tasks queued to ``ctx``'s node."""
        executed = 0
        for src in range(self.n_nodes):
            ring = self._rings[src][ctx.node_id]
            while executed < max_tasks:
                raw = ring.try_pop(ctx)
                if raw is None:
                    break
                task_id, _, _ = struct.unpack("<QQQ", raw)
                record = self._tasks.get(task_id)
                if record is None:
                    raise SchedulerError(f"unknown task {task_id} in queue")
                ctx.advance(self.costs.context_switch_ns + record.cost_ns)
                record.result = record.fn(ctx, record.payload)
                record.done = True
                record.executed_on = ctx.node_id
                self._dec_load(ctx, ctx.node_id)
                executed += 1
        return executed

    # -- internals -----------------------------------------------------------------------------

    def _load_addr(self, node: int) -> int:
        if not 0 <= node < self.n_nodes:
            raise SchedulerError(f"no node {node}")
        return self._load_addrs[node]

    def _dec_load(self, ctx: NodeContext, node: int) -> None:
        while True:
            current = ctx.atomic_load(self._load_addr(node))
            if current == 0:
                return
            swapped, _ = ctx.cas(self._load_addr(node), current, current - 1)
            if swapped:
                return
