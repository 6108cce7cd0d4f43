"""Tests for the FlacDK reliability pipeline: monitor and predictor."""

from repro.flacdk.reliability import FailurePredictor, HealthMonitor, monitor, prediction
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

    def test_window_expires_old_events(self, rig, monkeypatch):
        machine, _, _ = rig
        monkeypatch.setattr(monitor, "WINDOW_NS", 100.0)
        health = HealthMonitor(machine.faults.log)
        machine.faults.inject_ce(0x0, now_ns=0.0)
        machine.faults.inject_ce(0x0, now_ns=500.0)
        assert health.ce_count_by_page(now_ns=550.0) == {0: 1}

    def test_summary_shape(self, rig):
        machine, _, _ = rig
        monitor = HealthMonitor(machine.faults.log)
        machine.faults.inject_ce(0x40, now_ns=1.0)
        machine.crash_node(3)
        assert len(machine.faults.log.events(FaultKind.CORRECTABLE)) == 1
        assert len(machine.faults.log.events(FaultKind.NODE_CRASH)) == 1
        assert monitor.ce_count_by_page(now_ns=machine.max_time() + 1) == {0: 1}


class TestFailurePredictor:
    def test_hot_page_flagged(self, rig, monkeypatch):
        machine, _, _ = rig
        monkeypatch.setattr(prediction, "ALPHA", 0.5)
        monkeypatch.setattr(prediction, "THRESHOLD", 2.0)
        predictor = FailurePredictor(HealthMonitor(machine.faults.log))
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

    def test_scores_decay(self, rig, monkeypatch):
        machine, _, _ = rig
        monkeypatch.setattr(monitor, "WINDOW_NS", 10.0)
        monkeypatch.setattr(prediction, "ALPHA", 0.5)
        monkeypatch.setattr(prediction, "THRESHOLD", 1.0)
        predictor = FailurePredictor(HealthMonitor(machine.faults.log))
        for _ in range(8):
            machine.faults.inject_ce(machine.global_base, now_ns=1.0)
        predictor.observe(now_ns=2.0)
        assert predictor.at_risk_pages()[0].page_addr == machine.global_base
        for _ in range(12):  # the window has moved past the errors
            predictor.observe(now_ns=100.0)
        assert predictor.at_risk_pages() == []
