"""Tests for the FlacDK reliability pipeline: monitor, predictor and
detectors."""

import pytest

from repro.flacdk.reliability import (
    ChecksumDetector,
    FailurePredictor,
    HealthMonitor,
    HeartbeatDetector,
)
from repro.rack import FaultKind


class TestHealthMonitor:
    def test_counts_events_by_page(self, rig):
        machine, ctxs, _ = rig
        monitor = HealthMonitor(machine.faults.log, page_size=4096)
        g = machine.global_base
        for _ in range(3):
            machine.faults.inject_ce(g + 100, now_ns=10.0)
        machine.faults.inject_ce(g + 5000, now_ns=10.0)
        by_page = monitor.ce_count_by_page(now_ns=20.0)
        assert by_page[g & ~4095] == 3
        assert by_page[(g + 5000) & ~4095] == 1

    def test_window_expires_old_events(self, rig):
        machine, _, _ = rig
        monitor = HealthMonitor(machine.faults.log, window_ns=100.0)
        machine.faults.inject_ce(0x0, now_ns=0.0)
        machine.faults.inject_ce(0x0, now_ns=500.0)
        assert monitor.ce_count_by_page(now_ns=550.0) == {0: 1}
        assert monitor.total(FaultKind.CORRECTABLE) == 2  # all-time survives

    def test_summary_shape(self, rig):
        machine, _, _ = rig
        monitor = HealthMonitor(machine.faults.log)
        machine.faults.inject_ce(0x40, now_ns=1.0)
        machine.crash_node(3)
        assert monitor.total(FaultKind.CORRECTABLE) == 1
        assert monitor.total(FaultKind.NODE_CRASH) == 1
        assert monitor.ce_count_by_page(now_ns=machine.max_time() + 1) == {0: 1}


class TestFailurePredictor:
    def test_hot_page_flagged(self, rig):
        machine, _, _ = rig
        monitor = HealthMonitor(machine.faults.log)
        predictor = FailurePredictor(monitor, alpha=0.5, threshold=2.0)
        page = machine.global_base
        for _ in range(10):
            machine.faults.inject_ce(page + 8, now_ns=1.0)
        predictor.observe(now_ns=2.0)
        risk = predictor.at_risk_pages()[0]
        assert risk.page_addr == page and risk.at_risk and risk.score >= 2.0

    def test_quiet_page_not_flagged(self, rig):
        machine, _, _ = rig
        predictor = FailurePredictor(HealthMonitor(machine.faults.log))
        predictor.observe(now_ns=1.0)
        assert predictor.at_risk_pages() == []

    def test_scores_decay(self, rig):
        machine, _, _ = rig
        monitor = HealthMonitor(machine.faults.log, window_ns=10.0)
        predictor = FailurePredictor(monitor, alpha=0.5, threshold=1.0)
        for _ in range(8):
            machine.faults.inject_ce(machine.global_base, now_ns=1.0)
        predictor.observe(now_ns=2.0)
        assert predictor.at_risk_pages()[0].page_addr == machine.global_base
        for _ in range(12):  # the window has moved past the errors
            predictor.observe(now_ns=100.0)
        assert predictor.at_risk_pages() == []


class TestChecksumDetector:
    def test_intact_region_verifies(self, rig):
        _, ctxs, arena = rig
        det = ChecksumDetector()
        base = arena.take(256)
        ctxs[0].store(base, b"payload" * 8, bypass_cache=True)
        det.protect(ctxs[0], base, 64)
        assert det.verify(ctxs[1], base) is None

    def test_silent_bitflip_detected(self, rig):
        machine, ctxs, arena = rig
        det = ChecksumDetector()
        base = arena.take(256)
        det.protect(ctxs[0], base, 64)
        machine.faults.inject_bitflip(machine.global_mem, base - machine.global_base, bit=2)
        report = det.verify(ctxs[0], base)
        assert report is not None and report.observed_crc != report.expected_crc

    def test_ue_reported_as_unreadable(self, rig):
        machine, ctxs, arena = rig
        det = ChecksumDetector()
        base = arena.take(256)
        det.protect(ctxs[0], base, 64)
        machine.faults.inject_ue(machine.global_mem, base - machine.global_base)
        report = det.verify(ctxs[0], base)
        assert report is not None and report.observed_crc is None

    def test_sweep_finds_all_corruption(self, rig):
        machine, ctxs, arena = rig
        det = ChecksumDetector()
        clean = arena.take(64)
        dirty = arena.take(64)
        det.protect(ctxs[0], clean, 64)
        det.protect(ctxs[0], dirty, 64)
        machine.faults.inject_bitflip(machine.global_mem, dirty - machine.global_base)
        reports = det.sweep(ctxs[0])
        assert [r.region_base for r in reports] == [dirty]

    def test_unknown_region_raises(self, rig):
        _, ctxs, _ = rig
        with pytest.raises(KeyError):
            ChecksumDetector().verify(ctxs[0], 0x1234)


class TestHeartbeatDetector:
    def _detector(self, rig, timeout_ns=1e5):
        _, ctxs, arena = rig
        base = arena.take(HeartbeatDetector.region_size(4), align=8)
        return HeartbeatDetector(base, 4, timeout_ns).format(ctxs[0]), ctxs

    def test_beating_node_not_suspected(self, rig):
        det, ctxs = self._detector(rig)
        for ctx in ctxs:
            ctx.advance(500)
            det.beat(ctx)
        assert det.suspected_dead(ctxs[0]) == []

    def test_silent_node_suspected(self, rig):
        det, ctxs = self._detector(rig)
        for ctx in ctxs:
            det.beat(ctx)
        ctxs[0].advance(5e5)
        det.beat(ctxs[0])
        suspects = det.suspected_dead(ctxs[0])
        assert set(suspects) == {1, 2, 3}

    def test_confirm_dead_distinguishes_slow_from_crashed(self, rig):
        machine, _, _ = rig
        det, ctxs = self._detector(rig)
        machine.crash_node(2)
        assert det.confirm_dead(ctxs[0], 2)
        assert not det.confirm_dead(ctxs[0], 1)
