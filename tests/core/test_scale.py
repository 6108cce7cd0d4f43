"""Scale tests: the kernel at rack width (8 nodes, switched fabric).

Most tests use the paper's two-node shape; these exercise the same
subsystems with eight nodes behind a switch, where path costs rise,
shootdowns have seven responders, and the shared structures see
traffic from every direction.
"""

import struct

import pytest

from repro.bench import build_rig
from repro.core.boot import flatten, rack_description
from repro.core.memory import PAGE_SIZE, Placement


@pytest.fixture(scope="module")
def rig8():
    return build_rig(n_nodes=8, topology="two_tier", global_mem=1 << 26)


def _ctxs(rig):
    return [rig.machine.context(i) for i in range(8)]


class TestEightNodeKernel:
    def test_boot_and_discovery(self, rig8):
        desc = rack_description(rig8.machine)
        blob = flatten(desc)
        for ctx in _ctxs(rig8):
            assert ctx.load(rig8.kernel.bootrom.base, len(blob), bypass_cache=True) == blob
        assert desc.properties["#nodes"] == struct.pack("<Q", 8)
        # two_tier: nodes traverse a leaf and the spine
        fabric = next(c for c in desc.children if c.name == "fabric")
        port = next(c for c in fabric.children if c.name == "port@7")
        assert port.properties["switches"] == struct.pack("<Q", 2)

    def test_file_visible_from_every_node(self, rig8):
        ctxs = _ctxs(rig8)
        fd = rig8.kernel.fs.open(ctxs[3], "/eight", create=True)
        rig8.kernel.fs.write(ctxs[3], fd, 0, b"seen by all eight nodes")
        for ctx in ctxs:
            fd_n = rig8.kernel.fs.open(ctx, "/eight")
            assert rig8.kernel.fs.read(ctx, fd_n, 0, 23) == b"seen by all eight nodes"

    def test_one_address_space_on_eight_nodes(self, rig8):
        ctxs = _ctxs(rig8)
        memsys = rig8.kernel.memory
        aspace = memsys.create_address_space(ctxs[0])
        for ctx in ctxs[1:]:
            memsys.install(ctx, aspace)
        va = aspace.mmap(ctxs[0], 8 * PAGE_SIZE, placement=Placement.GLOBAL)
        for i, ctx in enumerate(ctxs):
            aspace.write(ctx, va + i * PAGE_SIZE, b"node%d" % i)
            aspace.publish(ctx, va + i * PAGE_SIZE, 5)
        for i, ctx in enumerate(ctxs):
            reader = ctxs[(i + 3) % 8]
            aspace.refresh(reader, va + i * PAGE_SIZE, 5)
            assert aspace.read(reader, va + i * PAGE_SIZE, 5) == b"node%d" % i
        assert aspace.fault_count == 8  # one fault per page, rack-wide

    def test_shootdown_acked_by_seven_responders(self, rig8):
        ctxs = _ctxs(rig8)
        memsys = rig8.kernel.memory
        aspace = memsys.create_address_space(ctxs[0])
        for ctx in ctxs[1:]:
            memsys.install(ctx, aspace)
        va = aspace.mmap(ctxs[0], PAGE_SIZE)
        aspace.write(ctxs[0], va, b"mapped")
        aspace.publish(ctxs[0], va, 6)
        for ctx in ctxs[1:]:
            aspace.refresh(ctx, va, 6)
            aspace.read(ctx, va, 6)
        memsys.unmap_range(ctxs[0], aspace, va, PAGE_SIZE, responders=ctxs[1:])
        for ctx in ctxs:
            assert memsys.tlbs[ctx.node_id].lookup(ctx, aspace.asid, va) is None

    def test_crash_two_recover_elsewhere(self, rig8):
        ctxs = _ctxs(rig8)
        kernel = rig8.kernel
        boxes = []
        for node in (5, 6):
            box = kernel.boxes.create_box(ctxs[node], f"app{node}", criticality=1)
            va = box.aspace.mmap(ctxs[node], PAGE_SIZE)
            box.aspace.write(ctxs[node], va, b"from node %d" % node)
            kernel.boxes.snapshot(ctxs[node], box)
            boxes.append((box, va, node))
        rig8.machine.crash_node(5)
        rig8.machine.crash_node(6)
        for box, va, node in boxes:
            report = kernel.recovery.handle_node_crash(ctxs[0], dead_node=node)
            assert any(r.box_id == box.box_id for r in report.recoveries)
            assert box.aspace.read(ctxs[0], va, 11) == b"from node %d" % node
        rig8.machine.restart_node(5)
        rig8.machine.restart_node(6)

    def test_global_heap_under_eight_node_churn(self, rig8):
        from repro.flacdk.alloc import SharedHeap

        ctxs = _ctxs(rig8)
        heap = SharedHeap(rig8.kernel.arena.take(1 << 21), 1 << 21).format(ctxs[0])
        live = {}
        for i in range(200):
            ctx = ctxs[i % 8]
            addr = heap.alloc(ctx, 64 + (i % 7) * 32)
            ctx.store(addr, bytes([i % 251 + 1]) * 32, bypass_cache=True)
            live[addr] = i % 251 + 1
            if i % 3 == 0 and len(live) > 1:
                victim = next(iter(live))
                del live[victim]
                heap.free(ctx, victim)
        for addr, marker in live.items():
            assert ctxs[0].load(addr, 32, bypass_cache=True) == bytes([marker]) * 32
