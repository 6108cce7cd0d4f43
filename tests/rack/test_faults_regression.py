"""Regression tests for the fault injector and the indexed fault log."""

from repro.rack import RackConfig, RackMachine
from repro.rack.faults import FaultEvent, FaultInjector, FaultKind, FaultLog
from repro.rack.memory import MemoryKind, PhysicalMemory
from repro.rack.params import FaultModel


def _injector(line_ratio: float) -> FaultInjector:
    return FaultInjector(FaultModel(line_corruption_ratio=line_ratio), seed=1)


class TestLineSpreadClamp:
    """inject_ue's line spread must stay inside the device, whatever its size."""

    def test_device_smaller_than_a_cache_line(self):
        # a 32B device cannot hold a 64B line spread: pre-fix the clamp
        # computed offset = device.size - 64 = -32 and poison() raised
        device = PhysicalMemory(32, MemoryKind.LOCAL_DRAM, "tiny")
        inj = _injector(line_ratio=1.0)  # always take the line-spread path
        inj.inject_ue(device, 5)
        assert device.poisoned == set(range(32))

    def test_one_byte_device(self):
        device = PhysicalMemory(1, MemoryKind.LOCAL_DRAM, "bit")
        inj = _injector(line_ratio=1.0)
        inj.inject_ue(device, 0)
        assert device.poisoned == {0}

    def test_offset_near_device_end_is_pulled_back(self):
        device = PhysicalMemory(128, MemoryKind.LOCAL_DRAM, "small")
        inj = _injector(line_ratio=1.0)
        inj.inject_ue(device, 127)  # line-aligns to 64, spread fits
        assert max(device.poisoned) < 128
        assert min(device.poisoned) >= 0
        assert len(device.poisoned) == 64

    def test_single_byte_path_unaffected(self):
        device = PhysicalMemory(32, MemoryKind.LOCAL_DRAM, "tiny")
        inj = _injector(line_ratio=0.0)  # never spread
        inj.inject_ue(device, 7)
        assert device.poisoned == {7}


class TestArmedFlags:
    """``armed`` is derived state: it follows ``enabled`` flips by itself and
    in-place model edits through ``model_changed()`` (the documented rule)."""

    def test_zero_rates_are_never_armed(self):
        inj = FaultInjector(FaultModel())
        assert inj.armed == (False, False) and inj.is_noop(True) and inj.is_noop(False)

    def test_each_region_kind_arms_on_its_own_rates(self):
        assert FaultInjector(FaultModel(global_ce_rate=0.1)).armed == (False, True)
        assert FaultInjector(FaultModel(local_ue_rate=0.1)).armed == (True, False)

    def test_disabling_disarms_and_enabling_rearms(self):
        inj = FaultInjector(FaultModel(global_ue_rate=0.5, local_ce_rate=0.5))
        inj.enabled = False
        assert inj.armed == (False, False) and inj.is_noop(True)
        inj.enabled = True
        assert inj.armed == (True, True) and not inj.is_noop(False)

    def test_in_place_edit_takes_effect_at_model_changed(self):
        inj = FaultInjector(FaultModel())
        inj.model.global_ue_rate = 1.0
        inj.model_changed()
        assert inj.armed == (False, True)

    def test_machine_gate_follows_a_mid_run_disable(self):
        m = RackMachine(RackConfig(n_nodes=2, seed=3, faults=FaultModel(global_ce_rate=1.0)))
        g = m.global_base
        m.atomic_load(0, g)
        assert len(m.faults.log) == 1
        m.faults.enabled = False
        m.atomic_load(0, g)
        m.load(0, g + 4096, 640)
        assert len(m.faults.log) == 1
        m.faults.enabled = True
        m.load(0, g + 8192, 640)  # ten lines, each rolls on its own again
        assert len(m.faults.log) == 11


def _ev(kind, t, addr=None):
    return FaultEvent(kind=kind, time_ns=t, addr=addr)


class TestFaultLogIndex:
    def test_events_filters_by_kind_and_time(self):
        log = FaultLog()
        for t in range(10):
            log.record(_ev(FaultKind.CORRECTABLE, float(t), addr=t))
        log.record(_ev(FaultKind.UNCORRECTABLE, 4.5, addr=99))
        assert len(log.events(FaultKind.CORRECTABLE)) == 10
        assert len(log.events(FaultKind.UNCORRECTABLE)) == 1
        assert [e.addr for e in log.events(FaultKind.CORRECTABLE, since_ns=7.0)] == [7, 8, 9]
        assert [e.addr for e in log.events(since_ns=4.5)] == [5, 6, 7, 8, 9, 99]

    def test_since_equal_timestamp_is_inclusive(self):
        log = FaultLog()
        log.record(_ev(FaultKind.CORRECTABLE, 5.0, addr=1))
        log.record(_ev(FaultKind.CORRECTABLE, 6.0, addr=2))
        assert [e.addr for e in log.events(since_ns=5.0)] == [1, 2]

    def test_repair_events_are_logged(self):
        log = FaultLog()
        inj = _injector(0.0)
        inj.log = log
        inj.record_repair(0x1000, node_id=1, now_ns=5.0, detail="source=test")
        (event,) = log.events(FaultKind.REPAIR)
        assert event.addr == 0x1000 and event.detail == "source=test"
