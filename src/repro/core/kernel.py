"""FlacOS: the coordinated, partially shared rack operating system.

``FlacOS.boot(machine)`` carves global memory, brings up every
subsystem in dependency order, and returns the kernel handle whose
attributes mirror Figure 2:

* ``memory``  — §3.3 memory system (shared page tables, TLBs, dedup)
* ``fs``      — §3.4 FlacFS (shared page cache, local metadata whose op log is the journal)
* ``ipc``     — §3.5 sockets; ``rpc`` — migration-based RPC
* ``boxes``   — §3.6 fault boxes; ``recovery`` — the coordinator;
  plus monitor/predictor from FlacDK

The per-node half of the design lives where each subsystem keeps it
(``memory.tlbs[node]``, FlacFS's metadata replicas, the node caches).
Background work — scrub patrols, health ticks — runs off one heap,
``events``, and nothing polls.
"""

from __future__ import annotations

from typing import Optional

from ..flacdk.alloc import FrameAllocator
from ..flacdk.arena import Arena
from ..flacdk.reliability import (
    FailurePredictor,
    HealthMonitor,
    MemoryScrubber,
    RepairCoordinator,
)
from ..flacdk.sync import OperationLog
from ..rack.machine import NodeContext, RackMachine
from .boot import ROM_BYTES, BootRom, rack_description
from .fault import (
    AdaptiveRedundancyPolicy,
    CheckpointPageSource,
    FaultBoxManager,
    FaultRecoveryCoordinator,
    FsBlockSource,
    NModularExecutor,
    PartialReplicator,
    ReplicaPageSource,
)
from .fs import FlacFS
from .ipc import IpcSystem, NameRegistry, RpcSystem
from .memory import MemorySystem, PAGE_SIZE
from .events import EventCore
from .params import OsCosts

#: bytes the scrub patrol walks per period
SCRUB_BYTES = 1 << 18


class FlacOS:
    """The booted rack OS."""

    def __init__(self, machine: RackMachine, costs: Optional[OsCosts] = None) -> None:
        self.machine = machine
        self.costs = costs or OsCosts()
        boot_ctx = machine.context(0)

        budget = machine.global_size
        self.arena = Arena(machine.global_base, budget)

        # §3.3 memory system
        self.memory = MemorySystem(
            machine,
            self.arena,
            costs=self.costs,
            global_frame_bytes=max(1 << 22, budget // 8),
            local_frame_bytes=min(1 << 22, machine.local_size(0) // 2),
        )

        # §3.4 file system
        self.fs = FlacFS(
            machine, self.arena, costs=self.costs, cache_bytes=max(1 << 22, budget // 4)
        )
        self.memory.set_file_reader(self._file_reader)

        # §3.5 communication
        registry_log = OperationLog(
            self.arena.take(OperationLog.region_size(1024), align=64), 1024
        ).format(boot_ctx)
        self.registry = NameRegistry(registry_log)
        self.ipc = IpcSystem(
            machine, self.arena, self.registry, costs=self.costs,
            heap_bytes=max(1 << 22, budget // 16),
        )
        self.rpc = RpcSystem(machine, self.registry, self.ipc.buffers, costs=self.costs)

        # §3.6 reliability
        self.monitor = HealthMonitor(machine.faults.log, page_size=PAGE_SIZE)
        self.predictor = FailurePredictor(self.monitor)
        self.boxes = FaultBoxManager(self.memory, costs=self.costs)
        standby_bytes = max(1 << 22, budget // 16)
        self.standby_frames = FrameAllocator(
            self.arena.take(standby_bytes, align=PAGE_SIZE), standby_bytes
        ).format(boot_ctx)
        self.replicator = PartialReplicator(self.boxes, self.standby_frames)
        self.policy = AdaptiveRedundancyPolicy(self.predictor)
        self.recovery = FaultRecoveryCoordinator(
            self.boxes, self.policy, replicator=self.replicator, monitor=self.monitor
        )
        self.nmodular = NModularExecutor()

        # self-healing: detect -> contain -> repair -> prevent.  Source
        # order is freshest-first: standby replica, latest checkpoint
        # page, FlacFS block layer.
        self.repair = RepairCoordinator(
            machine,
            sources=[
                ReplicaPageSource(self.boxes, self.replicator),
                CheckpointPageSource(self.boxes),
                FsBlockSource(self.fs),
            ],
        ).install()
        self.scrubber = MemoryScrubber(
            machine,
            repair=self.repair,
            predictor=self.predictor,
            evacuate=self.memory.migrate_global_page,
        )

        # §5 bootstrapping: the rack description, published by node 0
        self.bootrom = BootRom(self.arena.take(ROM_BYTES, align=64))
        self.bootrom.publish(boot_ctx, rack_description(machine))
        #: rack-wide discrete-event core; subsystems register wake-ups
        #: instead of being polled every tick
        self.events = EventCore(machine)

        # active health (repro.telemetry.health); opt-in via attach_health
        self.health = None
        #: recurring EventCore handles armed by start_patrols
        self.patrols: list = []

    @classmethod
    def boot(cls, machine: RackMachine, costs: Optional[OsCosts] = None) -> "FlacOS":
        return cls(machine, costs=costs)

    def attach_health(self, **kwargs):
        """Build and install a :class:`HealthEngine` for this rack
        (``kwargs``: its options).

        The engine reads the kernel's own fault monitor and failure
        predictor, so a firing CE/UE burn alert feeds the existing
        self-healing pipeline (predictor-driven evacuation).  Idempotent
        per kernel.
        """
        from ..telemetry.health import HealthEngine

        if self.health is None:
            self.health = HealthEngine(self, **kwargs).install()
        return self.health

    def start_patrols(self, period_ns: float, sink=None) -> list:
        """Arm the kernel daemons as recurring events on ``events``.

        Every ``period_ns`` the scrubber patrols :data:`SCRUB_BYTES` of
        global memory from the lowest-numbered live node; when a health
        engine is attached, it ticks at the same period and
        ``sink(line)`` receives each transition line (the chaos journal
        hook).  Idempotent; returns the recurring handles.
        """
        if self.patrols:
            return self.patrols

        def _scrub_patrol() -> None:
            ctx = self.alive_context()
            if ctx is not None:
                self.scrubber.step(ctx, max_bytes=SCRUB_BYTES)

        self.patrols.append(self.events.every(period_ns, _scrub_patrol))
        if self.health is not None:

            def _health_tick() -> None:
                for line in self.health.tick(self.machine.max_time()):
                    if sink is not None:
                        sink(line)

            self.patrols.append(self.events.every(period_ns, _health_tick))
        return self.patrols

    def stop_patrols(self) -> None:
        """Cancel the recurring patrols."""
        for handle in self.patrols:
            handle.cancel()
        self.patrols.clear()

    def alive_context(self) -> Optional[NodeContext]:
        """A context on the lowest-numbered live node, or None."""
        for node_id, node in sorted(self.machine.nodes.items()):
            if node.alive:
                return self.machine.context(node_id)
        return None

    def context(self, node_id: int) -> NodeContext:
        return self.machine.context(node_id)

    # -- cross-subsystem glue ---------------------------------------------------------

    def _file_reader(self, ctx: NodeContext, file_id: int, offset: int, size: int) -> bytes:
        """mmap-file backing: pull pages from FlacFS's shared cache."""
        page_idx = offset // PAGE_SIZE
        page_off = offset % PAGE_SIZE
        size = min(size, PAGE_SIZE - page_off)
        frame = self.fs.page_cache.get_page(ctx, file_id, page_idx, self.fs._loader(file_id, page_idx))
        ctx.invalidate(frame + page_off, size)  # stale local lines
        return ctx.load(frame + page_off, size)
