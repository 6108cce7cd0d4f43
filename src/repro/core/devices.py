"""Device sharing and aggregation (§5 "Open Challenges").

The three capabilities the paper wants from rack devices, built over
shared memory:

* **Global naming** — one device namespace for the whole rack: a
  replicated registry maps names to device queues, so every node sees
  the same ``/dev``-like view regardless of where a device is attached.
* **Device sharing** — a device attached to one node is *driveable* by
  all: its submission/completion queues and DMA buffers live in global
  memory, so any node can enqueue I/O and reap completions; the
  attach-node's driver loop executes them.
* **Device aggregation** — a node can stripe one logical volume across
  every device in the rack (multi-rail): per-rail queues are filled in
  parallel and the transfer completes at the speed of the slowest rail,
  not the sum of them serially.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..flacdk.structures import SpscRing
from ..rack.machine import NodeContext
from .fs.block import BlockDevice, BlockDeviceSpec
from .ipc.registry import Endpoint, NameRegistry
from .ipc.shared_buffer import BufferPool, BufferRef

_OP_READ = 0
_OP_WRITE = 1
_QUEUE_DEPTH = 64


class DeviceError(Exception):
    pass


@dataclass(frozen=True)
class IoRequest:
    """One submission-queue entry (fits in a ring slot)."""

    tag: int
    op: int
    block_no: int
    #: DMA buffer in global memory (write: source; read: destination)
    buffer: BufferRef

    def pack(self) -> bytes:
        return struct.pack("<QIIQQ", self.tag, self.op, 0, self.block_no, 0) + self.buffer.pack()

    @staticmethod
    def unpack(data: bytes) -> "IoRequest":
        tag, op, _, block_no, _ = struct.unpack("<QIIQQ", data[:32])
        return IoRequest(tag, op, block_no, BufferRef.unpack(data[32:48]))


@dataclass(frozen=True)
class IoCompletion:
    tag: int
    status: int  # 0 = ok

    def pack(self) -> bytes:
        return struct.pack("<QI4x", self.tag, self.status)

    @staticmethod
    def unpack(data: bytes) -> "IoCompletion":
        tag, status = struct.unpack("<QI4x", data)
        return IoCompletion(tag, status)


class SharedDevice:
    """A block device shared rack-wide through global-memory queues.

    The device hardware hangs off ``attach_node``; its driver is the
    only code touching the BlockDevice.  Everyone else interacts purely
    through the SQ/CQ rings and DMA buffers in global memory — the §5
    requirement that "device drivers and DMA buffers reside in shared
    global memory".
    """

    def __init__(
        self,
        name: str,
        attach_node: int,
        sq: SpscRing,
        cq: SpscRing,
        buffers: BufferPool,
        device: Optional[BlockDevice] = None,
    ) -> None:
        self.name = name
        self.attach_node = attach_node
        self.sq = sq
        self.cq = cq
        self.buffers = buffers
        self.device = device or BlockDevice()
        self._next_tag = 1
        self.submitted = 0
        self.completed = 0

    # -- initiator side (any node) ------------------------------------------------

    def submit_write(self, ctx: NodeContext, block_no: int, data: bytes) -> int:
        """Queue a write; data goes into a DMA buffer first.  Returns the tag."""
        if len(data) != self.device.spec.block_size:
            raise DeviceError(f"writes must be whole blocks ({self.device.spec.block_size} B)")
        buffer = self.buffers.put(ctx, data)
        return self._submit(ctx, IoRequest(self._take_tag(), _OP_WRITE, block_no, buffer))

    def submit_read(self, ctx: NodeContext, block_no: int) -> Tuple[int, BufferRef]:
        """Queue a read into a fresh DMA buffer.  Returns (tag, buffer)."""
        buffer = self.buffers.put(ctx, bytes(self.device.spec.block_size))
        tag = self._submit(ctx, IoRequest(self._take_tag(), _OP_READ, block_no, buffer))
        return tag, buffer

    def reap(self, ctx: NodeContext) -> Optional[IoCompletion]:
        """Poll the completion queue."""
        raw = self.cq.try_pop(ctx)
        return IoCompletion.unpack(raw) if raw is not None else None

    def read_dma(self, ctx: NodeContext, buffer: BufferRef) -> bytes:
        """Fetch a completed read's bytes from its DMA buffer (in place)."""
        return self.buffers.get(ctx, buffer)

    def release_dma(self, ctx: NodeContext, buffer: BufferRef) -> None:
        self.buffers.free(ctx, buffer)

    # -- driver side (attach node only) ----------------------------------------------

    def drive(self, ctx: NodeContext, max_requests: int = _QUEUE_DEPTH) -> int:
        """Execute pending submissions against the hardware."""
        if ctx.node_id != self.attach_node:
            raise DeviceError(
                f"device {self.name!r} is attached to node {self.attach_node}; "
                f"node {ctx.node_id} cannot drive it"
            )
        served = 0
        for _ in range(max_requests):
            raw = self.sq.try_pop(ctx)
            if raw is None:
                break
            request = IoRequest.unpack(raw)
            if request.op == _OP_WRITE:
                data = self.buffers.get(ctx, request.buffer)
                self.device.write_block(ctx, request.block_no, data)
                self.buffers.free(ctx, request.buffer)
            else:
                data = self.device.read_block(ctx, request.block_no)
                ctx.store(request.buffer.addr, data)
                ctx.flush(request.buffer.addr, len(data))
            if not self.cq.try_push(ctx, IoCompletion(request.tag, 0).pack()):
                raise DeviceError("completion queue overflow")
            served += 1
            self.completed += 1
        return served

    def _submit(self, ctx: NodeContext, request: IoRequest) -> int:
        if not self.sq.try_push(ctx, request.pack()):
            self.buffers.free(ctx, request.buffer)
            raise DeviceError(f"submission queue of {self.name!r} is full")
        self.submitted += 1
        return request.tag

    def _take_tag(self) -> int:
        tag = self._next_tag
        self._next_tag += 1
        return tag


class DeviceRegistry:
    """Global device naming (§5): one namespace for the whole rack."""

    def __init__(self, names: NameRegistry, buffers: BufferPool) -> None:
        self.names = names
        self.buffers = buffers
        self._devices: Dict[str, SharedDevice] = {}

    def attach(
        self,
        ctx: NodeContext,
        name: str,
        heap_alloc,
        spec: BlockDeviceSpec = BlockDeviceSpec(),
    ) -> SharedDevice:
        """Attach a device on ``ctx``'s node and publish it rack-wide."""
        slot = 48
        sq_size = SpscRing.region_size(_QUEUE_DEPTH, slot)
        cq_size = SpscRing.region_size(_QUEUE_DEPTH, 16)
        sq_addr = heap_alloc(ctx, sq_size)
        cq_addr = heap_alloc(ctx, cq_size)
        sq = SpscRing(sq_addr, _QUEUE_DEPTH, slot).format(ctx)
        cq = SpscRing(cq_addr, _QUEUE_DEPTH, 16).format(ctx)
        device = SharedDevice(
            name, ctx.node_id, sq, cq, self.buffers, BlockDevice(spec)
        )
        self.names.bind(
            ctx,
            Endpoint(
                name=f"dev:{name}",
                node_id=ctx.node_id,
                accept_ring_addr=sq_addr,
                meta=struct.pack("<Q", cq_addr),
            ),
        )
        self._devices[name] = device
        return device

    def open(self, ctx: NodeContext, name: str) -> SharedDevice:
        """Open a rack device by its global name, from any node."""
        self.names.resolve(ctx, f"dev:{name}")  # charges the lookup
        device = self._devices.get(name)
        if device is None:
            raise DeviceError(f"device {name!r} resolved but not materialised")
        return device

    def listing(self, ctx: NodeContext) -> List[str]:
        return [n[4:] for n in self.names.names(ctx) if n.startswith("dev:")]


class AggregatedVolume:
    """Multi-rail striping across every device in the rack (§5).

    Block ``i`` of the volume lives on rail ``i % n_rails``.  A striped
    write fills every rail's queue first and only then drives the rails,
    so the device work proceeds in parallel — the multi-rail RDMA idea
    applied to rack storage.
    """

    def __init__(self, rails: List[SharedDevice]) -> None:
        if not rails:
            raise DeviceError("aggregation needs at least one rail")
        self.rails = rails

    def write_striped(
        self, ctx: NodeContext, drivers: Dict[int, NodeContext], start_block: int, blocks: List[bytes]
    ) -> float:
        """Write blocks round-robin; returns the simulated makespan."""
        start = max([ctx.now()] + [d.now() for d in drivers.values()])
        tags = []
        for i, data in enumerate(blocks):
            rail = self.rails[i % len(self.rails)]
            tags.append(rail.submit_write(ctx, start_block + i // len(self.rails), data))
        for rail in self.rails:
            driver = drivers[rail.attach_node]
            driver.node.clock.sync_to(ctx.now())
            rail.drive(driver)
        reaped = 0
        for rail in self.rails:
            while rail.reap(ctx) is not None:
                reaped += 1
        if reaped != len(blocks):
            raise DeviceError(f"lost completions: {reaped}/{len(blocks)}")
        finish = max(d.now() for d in drivers.values())
        ctx.node.clock.sync_to(finish)
        return finish - start

    def read_striped(
        self,
        ctx: NodeContext,
        drivers: Dict[int, NodeContext],
        start_block: int,
        n_blocks: int,
    ) -> List[bytes]:
        """Read ``n_blocks`` striped blocks back, in order."""
        buffers: List[Tuple[int, BufferRef]] = []
        for i in range(n_blocks):
            rail = self.rails[i % len(self.rails)]
            buffers.append(rail.submit_read(ctx, start_block + i // len(self.rails)))
        for rail in self.rails:
            driver = drivers[rail.attach_node]
            driver.node.clock.sync_to(ctx.now())
            rail.drive(driver)
            ctx.node.clock.sync_to(driver.now())
        out = []
        for i, (tag, buffer) in enumerate(buffers):
            rail = self.rails[i % len(self.rails)]
            completion = rail.reap(ctx)
            if completion is None:
                raise DeviceError("missing completion")
            out.append(rail.read_dma(ctx, buffer))
            rail.release_dma(ctx, buffer)
        return out
