"""Rack-level serverless computing on FlacOS — the §4.1 case study.

The paper's Figure 3 architecture, built on the kernel's primitives:

* **startup**: sandboxes are containers started through the
  :class:`~repro.apps.containers.ContainerRuntime`, so the first start
  on the rack is cold, every later node rides the shared page cache,
  and warm sandboxes are reused from per-node pools;
* **communication**: function chains hop over FlacOS IPC shared buffers
  (or the TCP baseline, for the E7 comparison);
* **density**: runtime pages are shared rack-wide (one copy via the
  shared page cache / dedup), so a sandbox's *unique* footprint is only
  its application state — the platform reports how many sandboxes fit a
  memory budget under each model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.ipc import IpcSystem
from ..net.tcp import TcpNetwork
from ..rack.machine import NodeContext, RackMachine
from .containers import ContainerRuntime, StartReport


@dataclass(frozen=True)
class FunctionSpec:
    """A deployable serverless function."""

    name: str
    image: str
    handler: Callable[[NodeContext, bytes], bytes]
    #: handler CPU time per invocation.
    exec_ns: float = 250_000.0
    #: state unique to one sandbox (cannot be shared).
    private_bytes: int = 32 << 20
    #: language runtime + libraries (shareable rack-wide under FlacOS).
    runtime_bytes: int = 256 << 20


@dataclass
class Sandbox:
    fn: FunctionSpec
    node_id: int
    warm: bool = True
    invocations: int = 0


@dataclass
class InvokeReport:
    fn_name: str
    node_id: int
    start_kind: str  # "warm" | "cold" | "flacos-shared" | "hot"
    startup_ns: float
    exec_ns: float
    total_ns: float


@dataclass
class ChainReport:
    hops: List[InvokeReport]
    comm_ns: float
    total_ns: float


class ServerlessPlatform:
    """Control plane: scheduling, sandbox pools, chains, density."""

    def __init__(
        self,
        machine: RackMachine,
        runtime: ContainerRuntime,
        ipc: Optional[IpcSystem] = None,
        tcp: Optional[TcpNetwork] = None,
        schedule_cost_ns: float = 15_000.0,
        scheduler=None,
    ) -> None:
        self.machine = machine
        self.runtime = runtime
        self.ipc = ipc
        self.tcp = tcp
        self.schedule_cost_ns = schedule_cost_ns
        #: optional FlacOS RackScheduler — Figure 3's control plane uses
        #: the kernel's rack-wide load view instead of platform-local state
        self.scheduler = scheduler
        self._functions: Dict[str, FunctionSpec] = {}
        #: (fn, node) -> warm sandboxes
        self._pools: Dict[Tuple[str, int], List[Sandbox]] = {}
        self.start_reports: List[StartReport] = []

    # -- deployment -----------------------------------------------------------------

    def deploy(self, fn: FunctionSpec) -> None:
        if fn.name in self._functions:
            raise ValueError(f"function {fn.name!r} already deployed")
        self._functions[fn.name] = fn

    # -- scheduling --------------------------------------------------------------------

    def pick_node(self, fn_name: str) -> int:
        """Prefer a node with a warm sandbox, else the least-loaded node
        (by the kernel scheduler's rack-wide load view when wired)."""
        for (name, node_id), pool in self._pools.items():
            if name == fn_name and pool and self.machine.nodes[node_id].alive:
                return node_id
        if self.scheduler is not None:
            live = [n for n, node in self.machine.nodes.items() if node.alive]
            return self.scheduler.pick_node(self.machine.context(live[0]))
        loads = {
            node_id: sum(len(p) for (n, nid), p in self._pools.items() if nid == node_id)
            for node_id, node in self.machine.nodes.items()
            if node.alive
        }
        return min(loads, key=lambda nid: (loads[nid], nid))

    # -- invocation -------------------------------------------------------------------------

    def invoke(self, ctx: NodeContext, fn_name: str, payload: bytes) -> Tuple[bytes, InvokeReport]:
        """Run one invocation on ``ctx``'s node (scheduler already chose it)."""
        fn = self._lookup(fn_name)
        ctx.advance(self.schedule_cost_ns)
        start = ctx.now()
        pool = self._pools.setdefault((fn_name, ctx.node_id), [])
        if pool:
            sandbox = pool.pop()
            start_kind = "warm"
            startup_ns = 0.0
        else:
            report = self.runtime.start(ctx, fn.image)
            self.start_reports.append(report)
            sandbox = Sandbox(fn, ctx.node_id)
            start_kind = report.kind
            startup_ns = report.total_ns
        t_exec = ctx.now()
        ctx.advance(fn.exec_ns)
        result = fn.handler(ctx, payload)
        exec_ns = ctx.now() - t_exec
        sandbox.invocations += 1
        pool.append(sandbox)  # return to the warm pool
        return result, InvokeReport(
            fn_name=fn_name,
            node_id=ctx.node_id,
            start_kind=start_kind,
            startup_ns=startup_ns,
            exec_ns=exec_ns,
            total_ns=ctx.now() - start,
        )

    # -- chains ------------------------------------------------------------------------------

    def invoke_chain(
        self,
        entry_ctx: NodeContext,
        placements: List[Tuple[str, NodeContext]],
        payload: bytes,
        transport: str = "flacos",
    ) -> Tuple[bytes, ChainReport]:
        """Run a service chain, hopping between nodes after each stage.

        ``transport`` selects how inter-stage payloads move: ``flacos``
        (shared buffers — a descriptor crosses, bytes stay put) or
        ``tcp`` (the full copy + stack tax per hop).
        """
        hops: List[InvokeReport] = []
        comm_ns = 0.0
        t_start = entry_ctx.now()
        current = payload
        prev_ctx = entry_ctx
        for fn_name, ctx in placements:
            if ctx.node_id != prev_ctx.node_id:
                t0 = max(prev_ctx.now(), ctx.now())
                current = self._hop(prev_ctx, ctx, current, transport)
                comm_ns += ctx.now() - t0
            current, report = self.invoke(ctx, fn_name, current)
            hops.append(report)
            prev_ctx = ctx
        prev_ctx.node.clock.sync_to(max(c.now() for _, c in placements))
        return current, ChainReport(
            hops=hops, comm_ns=comm_ns, total_ns=prev_ctx.now() - t_start
        )

    def _hop(
        self, src: NodeContext, dst: NodeContext, payload: bytes, transport: str
    ) -> bytes:
        if transport == "flacos":
            if self.ipc is None:
                raise RuntimeError("platform built without an IPC system")
            ref = self.ipc.buffers.put(src, payload)
            dst.node.clock.sync_to(src.now())
            data = self.ipc.buffers.get(dst, ref)
            self.ipc.buffers.free(dst, ref)
            return data
        if transport == "tcp":
            if self.tcp is None:
                raise RuntimeError("platform built without a TCP network")
            name = f"chain:{src.node_id}->{dst.node_id}"
            if name not in self.tcp._listeners:
                self.tcp.listen(dst, name)
            conn = self.tcp.connect(src, name)
            conn.send(src, payload)
            received = conn.recv(dst)
            if received is None:
                raise RuntimeError("chain hop lost its payload")
            return received
        raise ValueError(f"unknown transport {transport!r}")

    # -- density -----------------------------------------------------------------------------------

    def density(self, fn_name: str, memory_budget_bytes: int, shared_runtime: bool) -> int:
        """Sandboxes of ``fn_name`` that fit the budget.

        With FlacOS sharing, the runtime's pages exist once rack-wide;
        each sandbox adds only its private bytes.  Without sharing every
        sandbox carries a full private runtime copy.
        """
        fn = self._lookup(fn_name)
        if shared_runtime:
            available = memory_budget_bytes - fn.runtime_bytes
            if available < 0:
                return 0
            return available // fn.private_bytes
        return memory_budget_bytes // (fn.runtime_bytes + fn.private_bytes)

    def _lookup(self, fn_name: str) -> FunctionSpec:
        fn = self._functions.get(fn_name)
        if fn is None:
            raise KeyError(f"function {fn_name!r} is not deployed")
        return fn
