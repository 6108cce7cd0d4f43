"""End-to-end FlacOS kernel tests: subsystems working together."""

import pytest

from repro.bench import build_rig
from repro.core.memory import PAGE_SIZE, Placement
from repro.rack import FaultKind


@pytest.fixture
def rig():
    return build_rig()


class TestBootShape:
    def test_all_subsystems_present(self, rig):
        kernel = rig.kernel
        for attribute in (
            "memory", "fs", "ipc", "rpc", "boxes", "recovery",
            "monitor", "predictor", "replicator", "bootrom",
        ):
            assert hasattr(kernel, attribute), attribute


class TestCrossSubsystem:
    def test_fs_write_ipc_notify_read(self, rig):
        """Producer writes a file, notifies via IPC, consumer reads it —
        all through shared memory, no bytes copied across a network."""
        kernel = rig.kernel
        fd = kernel.fs.open(rig.c0, "/artifact", create=True)
        kernel.fs.write(rig.c0, fd, 0, b"pipeline output" * 100)
        listener = kernel.ipc.listen(rig.c1, "notify")
        conn = kernel.ipc.connect(rig.c0, "notify")
        server = listener.accept(rig.c1)
        conn.send(rig.c0, b"/artifact")
        path = server.recv(rig.c1).decode()
        fd1 = kernel.fs.open(rig.c1, path)
        assert kernel.fs.read(rig.c1, fd1, 0, 15) == b"pipeline output"

    def test_mmap_file_backed_by_shared_page_cache(self, rig):
        """File-backed mmap pulls pages through FlacFS's shared cache."""
        kernel = rig.kernel
        fd = kernel.fs.open(rig.c0, "/lib.so", create=True)
        kernel.fs.write(rig.c0, fd, 0, b"CODE" * 2048)  # two pages
        ino = kernel.fs.stat(rig.c0, "/lib.so").ino
        aspace = kernel.memory.create_address_space(rig.c1)
        va = aspace.mmap(rig.c1, 2 * PAGE_SIZE, backing=(ino, 0))
        assert aspace.read(rig.c1, va, 4) == b"CODE"
        assert aspace.read(rig.c1, va + PAGE_SIZE, 4) == b"CODE"

    def test_rpc_touching_fs(self, rig):
        """A service registered on node 1, called from node 0 via thread
        migration, reads FlacFS state — everything stays in-rack."""
        kernel = rig.kernel
        fd = kernel.fs.open(rig.c1, "/config", create=True)
        kernel.fs.write(rig.c1, fd, 0, b"limit=42")
        kernel.rpc.register(rig.c1, "get-config", _read_config)
        assert kernel.rpc.call(rig.c0, "get-config", kernel.fs) == b"limit=42"

    def test_box_snapshot_then_migrate_process(self, rig):
        kernel = rig.kernel
        box = kernel.boxes.create_box(rig.c0, "svc")
        va = box.aspace.mmap(rig.c0, PAGE_SIZE, placement=Placement.GLOBAL)
        box.aspace.write(rig.c0, va, b"live state")
        # the page table and GLOBAL pages are shared: publish node 0's
        # cached lines, then run the same address space on node 1
        rig.machine.flush_all(0)
        kernel.memory.install(rig.c1, box.aspace)
        box.aspace.refresh(rig.c1, va, 10)
        assert box.aspace.read(rig.c1, va, 10) == b"live state"

    def test_monitor_sees_injected_faults(self, rig):
        kernel = rig.kernel
        g = rig.machine.global_base
        for _ in range(5):
            rig.machine.faults.inject_ce(g + 128, now_ns=rig.c0.now())
        kernel.predictor.observe(rig.c0.now() + 1)
        assert len(rig.machine.faults.log.events(FaultKind.CORRECTABLE)) == 5


class TestWholeRackStory:
    def test_web_service_lifecycle(self, rig):
        """A service's whole life: boot, serve, checkpoint, crash, recover,
        keep serving — the paper's reliability story end to end."""
        kernel = rig.kernel

        # deploy: a counter service whose state lives in a fault box
        box = kernel.boxes.create_box(rig.c0, "counter-svc", criticality=1)
        va = box.aspace.mmap(rig.c0, PAGE_SIZE)
        box.aspace.write(rig.c0, va, (100).to_bytes(8, "little"))

        # serve a few requests (each bumps the counter)
        for _ in range(5):
            value = int.from_bytes(box.aspace.read(rig.c0, va, 8), "little")
            box.aspace.write(rig.c0, va, (value + 1).to_bytes(8, "little"))
        kernel.boxes.snapshot(rig.c0, box)

        # more traffic after the checkpoint
        box.aspace.write(rig.c0, va, (999).to_bytes(8, "little"))

        # node 0 dies; the coordinator recovers the box on node 1
        rig.machine.crash_node(0)
        report = kernel.recovery.handle_node_crash(rig.c1, dead_node=0)
        assert report.blast_radius_boxes == 1
        assert box.home_node == 1

        # the service resumes from the checkpoint (105), not from 999
        value = int.from_bytes(box.aspace.read(rig.c1, va, 8), "little")
        assert value == 105
        box.aspace.write(rig.c1, va, (value + 1).to_bytes(8, "little"))
        assert int.from_bytes(box.aspace.read(rig.c1, va, 8), "little") == 106


def _read_config(ctx, fs):
    fd = fs.open(ctx, "/config")
    return fs.read(ctx, fd, 0, 64)
