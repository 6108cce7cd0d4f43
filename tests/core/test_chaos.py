"""Chaos tests: the full kernel under sustained background faults.

A workload runs while the rack degrades — correctable-error storms,
link flaps, and a node crash with recovery — and the invariants that
matter must hold at the end: committed data is exactly right, fault
boxes recover to their checkpoints, the health pipeline saw the storm,
and the survivors keep serving.
"""

import pytest

from repro.bench import build_rig
from repro.core.memory import PAGE_SIZE
from repro.rack import FaultKind, FaultModel, RackConfig, RackMachine, rendezvous
from repro.core.kernel import FlacOS
from repro.rack.memory import UncorrectableMemoryError


class TestCorrectableErrorStorm:
    def test_workload_survives_ce_storm_and_predictor_fires(self):
        """CEs corrupt nothing (ECC) but must reach the predictor."""
        machine = RackMachine(
            RackConfig(
                n_nodes=2,
                global_mem_size=1 << 26,
                local_mem_size=1 << 23,
                faults=FaultModel(global_ce_rate=0.02),
                seed=7,
            )
        )
        kernel = FlacOS.boot(machine)
        c0, c1 = kernel.context(0), kernel.context(1)
        fd = kernel.fs.open(c0, "/under-fire", create=True)
        payload = bytes(range(256)) * 16
        for i in range(20):
            kernel.fs.write(c0, fd, i * len(payload), payload)
        fd1 = kernel.fs.open(c1, "/under-fire")
        for i in range(20):
            assert kernel.fs.read(c1, fd1, i * len(payload), len(payload)) == payload
        assert len(kernel.machine.faults.log.events(FaultKind.CORRECTABLE)) > 0
        kernel.predictor.observe(machine.max_time())
        # the storm is uniform, so scores exist even if below threshold
        assert kernel.predictor._scores


class TestNodeCrashMidWorkload:
    def test_committed_fs_state_survives_writer_crash(self):
        rig = build_rig()
        kernel = rig.kernel
        fd = kernel.fs.open(rig.c0, "/durable", create=True)
        kernel.fs.write(rig.c0, fd, 0, b"committed before crash")
        # written through the shared page cache with bypassing stores:
        # the data is in global memory, not the dead node's cache
        rig.machine.crash_node(0)
        fd1 = kernel.fs.open(rig.c1, "/durable")
        assert kernel.fs.read(rig.c1, fd1, 0, 22) == b"committed before crash"

    def test_boxed_service_rides_through_crash(self):
        rig = build_rig()
        kernel = rig.kernel
        box = kernel.boxes.create_box(rig.c0, "svc", criticality=2)
        va = box.aspace.mmap(rig.c0, 2 * PAGE_SIZE)
        box.aspace.write(rig.c0, va, b"generation-1")
        kernel.replicator.enable(box)
        kernel.replicator.sync(rig.c0, box)
        box.aspace.write(rig.c0, va, b"generation-2")  # after the barrier
        rig.machine.crash_node(0)
        report = kernel.recovery.handle_node_crash(rig.c1, dead_node=0)
        assert report.blast_radius_boxes == 1
        # recovered to the replicated barrier, not the lost update
        assert box.aspace.read(rig.c1, va, 12) == b"generation-1"
        # and the service keeps mutating on the survivor
        box.aspace.write(rig.c1, va, b"generation-3")
        assert box.aspace.read(rig.c1, va, 12) == b"generation-3"

    def test_restarted_node_rejoins(self):
        rig = build_rig()
        kernel = rig.kernel
        fd = kernel.fs.open(rig.c1, "/shared", create=True)
        kernel.fs.write(rig.c1, fd, 0, b"written while 0 was down")
        rig.machine.crash_node(0)
        rig.machine.restart_node(0)
        c0 = rig.machine.context(0)
        fd0 = kernel.fs.open(c0, "/shared")
        assert kernel.fs.read(c0, fd0, 0, 24) == b"written while 0 was down"


class TestLinkFlap:
    def test_severed_node_fails_fast_and_recovers(self):
        rig = build_rig()
        kernel = rig.kernel
        from repro.rack import InterconnectError

        fd = kernel.fs.open(rig.c0, "/f", create=True)
        kernel.fs.write(rig.c0, fd, 0, b"pre-flap")
        rig.machine.sever_node_link(0)
        rig.c0.node.cache.invalidate_all()  # nothing cached to hide behind
        with pytest.raises(InterconnectError):
            kernel.fs.read(rig.c0, fd, 0, 8)
        # node 1 is unaffected
        fd1 = kernel.fs.open(rig.c1, "/f")
        assert kernel.fs.read(rig.c1, fd1, 0, 8) == b"pre-flap"
        # link restored: node 0 resumes
        rig.machine.sever_node_link(0, up=True)
        assert kernel.fs.read(rig.c0, fd, 0, 8) == b"pre-flap"
        # both transitions are in the fault log for the monitor
        assert len(kernel.machine.faults.log.events(FaultKind.LINK_DOWN)) == 1
        assert len(kernel.machine.faults.log.events(FaultKind.LINK_UP)) == 1


class TestUncorrectableOnKernelState:
    def test_poisoned_page_cache_frame_detected_and_repaired(self):
        """A UE lands in a cached file page: reads raise, the poison sits
        in that frame, and rewriting the whole page repairs it."""
        rig = build_rig()
        kernel = rig.kernel
        fd = kernel.fs.open(rig.c0, "/victim", create=True)
        kernel.fs.write(rig.c0, fd, 0, b"healthy bytes" * 100)
        ino = kernel.fs.stat(rig.c0, "/victim").ino
        frame = kernel.fs.page_cache.get_page(rig.c0, ino, 0)
        rig.machine.faults.inject_ue(
            kernel.machine.global_mem, frame - rig.machine.global_base, rack_addr=frame
        )
        with pytest.raises(UncorrectableMemoryError):
            kernel.fs.read(rig.c1, kernel.fs.open(rig.c1, "/victim"), 0, 13)
        assert rig.machine.poisoned_addrs(frame, PAGE_SIZE) == [frame]
        # repair: a FULL-page multi-version write replaces the poisoned
        # frame without ever reading it
        fd1 = kernel.fs.open(rig.c1, "/victim")
        restored = (b"healthy bytes" * 100).ljust(PAGE_SIZE, b"\x00")
        kernel.fs.write(rig.c1, fd1, 0, restored)
        assert kernel.fs.read(rig.c1, fd1, 0, 13) == b"healthy bytes"
        assert kernel.fs.page_cache.get_page(rig.c1, ino, 0) != frame  # a new version


class TestDeterminism:
    def test_chaotic_run_is_bit_reproducible(self):
        """Same seed, same chaos, same final state and clocks."""

        def run():
            machine = RackMachine(
                RackConfig(
                    n_nodes=2,
                    global_mem_size=1 << 26,
                    local_mem_size=1 << 23,
                    faults=FaultModel(global_ce_rate=0.01),
                    seed=123,
                )
            )
            kernel = FlacOS.boot(machine)
            c0, c1 = kernel.context(0), kernel.context(1)
            fd = kernel.fs.open(c0, "/det", create=True)
            for i in range(10):
                kernel.fs.write(c0, fd, i * 100, b"%03d" % i)
            data = kernel.fs.read(c1, kernel.fs.open(c1, "/det"), 0, 950)
            return data, c0.now(), c1.now(), len(machine.faults.log)

        assert run() == run()
