"""Tests for the §5 open-challenge implementations: rack-wide
interrupts, shared/aggregated devices, and boot-rom discovery."""

import pytest

from repro.bench import build_rig
from repro.core.boot import (
    BootRom,
    DeviceTreeError,
    DtNode,
    flatten,
    rack_description,
    unflatten,
)
from repro.core.devices import AggregatedVolume, DeviceError
from repro.core.interrupts import (
    InterruptController,
    InterruptError,
    IrqBalancer,
    MwaitTimeout,
    mwait,
    wake,
)


@pytest.fixture
def rig():
    return build_rig()


class TestIpi:
    def test_cross_node_delivery(self, rig):
        received = []
        rig.kernel.interrupts.register(1, 7, lambda ctx, v: received.append(v))
        rig.kernel.interrupts.send_ipi(rig.c0, 1, 7)
        assert rig.kernel.interrupts.poll(rig.c1) == [7]
        assert received == [7]

    def test_coalescing(self, rig):
        ic = rig.kernel.interrupts
        for _ in range(5):
            ic.send_ipi(rig.c0, 1, 3)
        assert ic.poll(rig.c1) == [3]  # five sends, one delivery
        assert ic.poll(rig.c1) == []

    def test_multiple_vectors(self, rig):
        ic = rig.kernel.interrupts
        ic.send_ipi(rig.c0, 1, 2)
        ic.send_ipi(rig.c0, 1, 9)
        assert ic.poll(rig.c1) == [2, 9]

    def test_broadcast_excludes_self(self, rig):
        ic = rig.kernel.interrupts
        assert ic.broadcast(rig.c0, 4) == 1
        assert ic.poll(rig.c0) == []
        assert ic.poll(rig.c1) == [4]

    def test_vector_validation(self, rig):
        with pytest.raises(InterruptError):
            rig.kernel.interrupts.send_ipi(rig.c0, 1, 99)
        with pytest.raises(InterruptError):
            rig.kernel.interrupts.send_ipi(rig.c0, 42, 1)

    def test_poll_via_node_os(self, rig):
        rig.kernel.interrupts.send_ipi(rig.c0, 1, 11)
        assert rig.kernel.interrupts.poll(rig.c1) == [11]


class TestMwait:
    def test_wake_releases_waiter(self, rig):
        addr = rig.kernel.arena.take(8, align=8)
        rig.c0.atomic_store(addr, 0)
        wake(rig.c1, addr, 42)  # writer fires first (cooperative sim)
        assert mwait(rig.c0, addr, expected=0) == 42

    def test_timeout_when_nothing_changes(self, rig):
        addr = rig.kernel.arena.take(8, align=8)
        rig.c0.atomic_store(addr, 5)
        with pytest.raises(MwaitTimeout):
            mwait(rig.c0, addr, expected=5, max_polls=8)

    def test_waiting_charges_backoff_time(self, rig):
        addr = rig.kernel.arena.take(8, align=8)
        rig.c0.atomic_store(addr, 5)
        before = rig.c0.now()
        with pytest.raises(MwaitTimeout):
            mwait(rig.c0, addr, expected=5, max_polls=8)
        assert rig.c0.now() - before > 8 * 100


class TestIrqRouting:
    def test_default_round_robin_routes(self, rig):
        balancer = rig.kernel.irqs
        assert balancer.route_of(rig.c0, 0) == 0
        assert balancer.route_of(rig.c0, 1) == 1
        assert balancer.route_of(rig.c0, 2) == 0

    def test_raise_irq_delivers_to_route(self, rig):
        balancer = rig.kernel.irqs
        balancer.set_route(rig.c0, 5, 1)
        assert balancer.raise_irq(rig.c0, 5, vector=12) == 1
        assert rig.kernel.interrupts.poll(rig.c1) == [12]

    def test_rebalance_spreads_load(self, rig):
        balancer = rig.kernel.irqs
        # three IRQs all routed at node 0, one of them hot
        for irq in (0, 2, 4):
            balancer.set_route(rig.c0, irq, 0)
        for _ in range(10):
            balancer.raise_irq(rig.c0, 0, vector=1)
        balancer.raise_irq(rig.c0, 2, vector=1)
        balancer.raise_irq(rig.c0, 4, vector=1)
        balancer.rebalance(rig.c0)
        routes = {irq: balancer.route_of(rig.c0, irq) for irq in (0, 2, 4)}
        assert set(routes.values()) == {0, 1}  # no longer all on node 0
        # the hot IRQ sits alone on its node
        hot_node = routes[0]
        assert [routes[i] for i in (2, 4)] == [1 - hot_node, 1 - hot_node]

    def test_bad_irq_rejected(self, rig):
        with pytest.raises(InterruptError):
            rig.kernel.irqs.route_of(rig.c0, 99)


class TestSharedDevices:
    def test_remote_node_drives_io_through_shared_queues(self, rig):
        devices = rig.kernel.devices
        nvme = devices.attach(rig.c1, "nvme0", rig.kernel.ipc.heap.alloc)
        # node 0 writes a block on a device attached to node 1
        tag = nvme.submit_write(rig.c0, 3, b"B" * 4096)
        assert nvme.drive(rig.c1) == 1
        completion = nvme.reap(rig.c0)
        assert completion.tag == tag and completion.status == 0
        # and reads it back through a DMA buffer
        tag, buffer = nvme.submit_read(rig.c0, 3)
        nvme.drive(rig.c1)
        assert nvme.reap(rig.c0).tag == tag
        assert nvme.read_dma(rig.c0, buffer) == b"B" * 4096
        nvme.release_dma(rig.c0, buffer)

    def test_global_naming(self, rig):
        devices = rig.kernel.devices
        devices.attach(rig.c1, "nvme0", rig.kernel.ipc.heap.alloc)
        devices.attach(rig.c0, "nvme1", rig.kernel.ipc.heap.alloc)
        assert devices.listing(rig.c0) == ["nvme0", "nvme1"]
        opened = devices.open(rig.c0, "nvme0")  # same name from any node
        assert opened.attach_node == 1

    def test_only_attach_node_drives(self, rig):
        nvme = rig.kernel.devices.attach(rig.c1, "nvme0", rig.kernel.ipc.heap.alloc)
        with pytest.raises(DeviceError):
            nvme.drive(rig.c0)

    def test_whole_block_writes_enforced(self, rig):
        nvme = rig.kernel.devices.attach(rig.c0, "nvme0", rig.kernel.ipc.heap.alloc)
        with pytest.raises(DeviceError):
            nvme.submit_write(rig.c0, 0, b"short")

    def test_aggregation_round_trips(self, rig):
        devices = rig.kernel.devices
        rails = [
            devices.attach(rig.c0, "nvme0", rig.kernel.ipc.heap.alloc),
            devices.attach(rig.c1, "nvme1", rig.kernel.ipc.heap.alloc),
        ]
        volume = AggregatedVolume(rails)
        drivers = {0: rig.c0, 1: rig.c1}
        blocks = [bytes([i]) * 4096 for i in range(6)]
        volume.write_striped(rig.c0, drivers, 0, blocks)
        assert volume.read_striped(rig.c0, drivers, 0, 6) == blocks

    def test_aggregation_parallelises_io(self, rig):
        """Striping across two rails beats one rail for the same bytes."""
        devices = rig.kernel.devices
        blocks = [bytes([i]) * 4096 for i in range(8)]

        solo = AggregatedVolume([devices.attach(rig.c0, "solo", rig.kernel.ipc.heap.alloc)])
        solo_ns = solo.write_striped(rig.c0, {0: rig.c0}, 0, blocks)

        rig2 = build_rig()
        rails = [
            rig2.kernel.devices.attach(rig2.c0, "r0", rig2.kernel.ipc.heap.alloc),
            rig2.kernel.devices.attach(rig2.c1, "r1", rig2.kernel.ipc.heap.alloc),
        ]
        duo = AggregatedVolume(rails)
        duo_ns = duo.write_striped(rig2.c0, {0: rig2.c0, 1: rig2.c1}, 0, blocks)
        assert duo_ns < solo_ns


class TestBootRom:
    def test_flatten_unflatten_round_trip(self):
        root = DtNode("rack")
        root.set_prop("compatible", "flacos,rack-v1")
        child = root.add_child("memory")
        child.set_prop("size", 123456)
        child.add_child("bank0").set_prop("data", b"\x01\x02")
        rebuilt = unflatten(flatten(root))
        assert rebuilt.get_str("compatible") == "flacos,rack-v1"
        assert rebuilt.child("memory").get_u64("size") == 123456
        assert rebuilt.find("memory/bank0").properties["data"] == b"\x01\x02"

    def test_corrupt_blob_rejected(self):
        with pytest.raises(DeviceTreeError):
            unflatten(b"\x00" * 16)
        with pytest.raises(DeviceTreeError):
            unflatten(b"junk")

    def test_rack_description_reflects_hardware(self, rig):
        desc = rack_description(rig.machine)
        assert desc.get_u64("#nodes") == 2
        assert desc.find("memory/global").get_u64("size") == rig.machine.global_size
        assert desc.find("memory/local@1").get_u64("owner") == 1
        assert desc.find("cpus/node@0").get_u64("cores") == 320
        assert desc.find("fabric/port@0").get_u64("hops") == 1

    def test_every_node_discovers_the_same_description(self, rig):
        a = rig.kernel.bootrom.discover(rig.c0)
        b = rig.kernel.bootrom.discover(rig.c1)
        assert flatten(a) == flatten(b)

    def test_unpublished_rom_rejected(self, rig):
        fresh = BootRom(rig.kernel.arena.take(1 << 12, align=64), capacity=1 << 12)
        with pytest.raises(DeviceTreeError):
            fresh.discover(rig.c0)

    def test_capacity_enforced(self, rig):
        tiny = BootRom(rig.kernel.arena.take(64, align=64), capacity=64)
        big = DtNode("rack")
        big.set_prop("blob", b"x" * 100)
        with pytest.raises(DeviceTreeError):
            tiny.publish(rig.c0, big)
