"""RepairCoordinator and MemoryScrubber unit tests."""

import pytest

from repro.flacdk.reliability import (
    FailurePredictor,
    HealthMonitor,
    MemoryScrubber,
    RepairCoordinator,
    RepairSource,
)
from repro.flacdk.reliability import scrub
from repro.flacdk.reliability.repair import REPAIR_PAGE
from repro.rack.faults import FaultKind
from repro.rack.memory import UncorrectableMemoryError


class StaticSource(RepairSource):
    """Returns a fixed page for a fixed set of addresses."""

    def __init__(self, name, pages):
        self.name = name
        self.pages = dict(pages)
        self.calls = []

    def recover_page(self, ctx, page_addr):
        self.calls.append(page_addr)
        return self.pages.get(page_addr)


def _poison(machine, rack_addr, size=1):
    machine.global_mem.poison(rack_addr - machine.global_base, size)


def _page(machine, idx):
    return machine.global_base + idx * REPAIR_PAGE


class TestRepairCoordinator:
    def test_repairs_from_source_and_logs(self, rig):
        machine, ctxs, _ = rig
        page = _page(machine, 3)
        good = bytes([7]) * REPAIR_PAGE
        ctxs[0].store(page, good, bypass_cache=True)
        _poison(machine, page + 100, 8)
        coord = RepairCoordinator(machine, sources=[StaticSource("fixed", {page: good})])
        record = coord.repair(ctxs[0], page + 100)
        assert record.ok and record.source == "fixed"
        assert ctxs[0].load(page, REPAIR_PAGE, bypass_cache=True) == good
        assert coord.stats.repaired == 1
        assert coord.stats.by_source == {"fixed": 1}
        (event,) = machine.faults.log.events(FaultKind.REPAIR)
        assert event.detail == "source=fixed"

    def test_source_priority_order(self, rig):
        machine, ctxs, _ = rig
        page = _page(machine, 4)
        first = StaticSource("first", {})  # abstains
        second = StaticSource("second", {page: b"\x01" * REPAIR_PAGE})
        coord = RepairCoordinator(machine, sources=[first, second])
        _poison(machine, page)
        record = coord.repair(ctxs[0], page)
        assert record.source == "second"
        assert first.calls == [page]  # consulted first, in order

    def test_already_clean_short_circuits(self, rig):
        machine, ctxs, _ = rig
        source = StaticSource("fixed", {})
        coord = RepairCoordinator(machine, sources=[source])
        record = coord.repair(ctxs[0], _page(machine, 5))
        assert record.ok and record.source == "already-clean"
        assert source.calls == []  # never consulted
        assert coord.stats.repaired == 0 and coord.stats.attempted == 1

    def test_unrepairable_when_no_source_has_the_page(self, rig):
        machine, ctxs, _ = rig
        page = _page(machine, 6)
        _poison(machine, page)
        coord = RepairCoordinator(machine, sources=[StaticSource("empty", {})])
        record = coord.repair(ctxs[0], page)
        assert not record.ok and record.source == "none"
        assert coord.stats.unrepairable == 1

    def test_installed_handler_makes_access_retry_transparently(self, rig):
        machine, ctxs, _ = rig
        page = _page(machine, 7)
        good = b"\x42" * REPAIR_PAGE
        coord = RepairCoordinator(machine, sources=[StaticSource("fixed", {page: good})])
        coord.install()
        _poison(machine, page + 9, 4)
        # the poisoned load self-heals instead of raising
        assert ctxs[1].load(page, REPAIR_PAGE, bypass_cache=True) == good
        assert coord.stats.repaired == 1

    def test_unrepairable_access_still_raises(self, rig):
        machine, ctxs, _ = rig
        page = _page(machine, 8)
        RepairCoordinator(machine, sources=[]).install()
        _poison(machine, page)
        with pytest.raises(UncorrectableMemoryError):
            ctxs[0].load(page, 16, bypass_cache=True)

    def test_short_source_content_is_padded(self, rig):
        machine, ctxs, _ = rig
        page = _page(machine, 9)
        coord = RepairCoordinator(machine, sources=[StaticSource("short", {page: b"abc"})])
        _poison(machine, page + 50)
        assert coord.repair(ctxs[0], page + 50).ok
        got = ctxs[0].load(page, REPAIR_PAGE, bypass_cache=True)
        assert got.startswith(b"abc") and got[3:] == bytes(REPAIR_PAGE - 3)


class TestMemoryScrubber:
    def test_patrol_finds_and_repairs_latent_poison(self, rig):
        machine, ctxs, _ = rig
        page = _page(machine, 20)
        good = b"\x55" * REPAIR_PAGE
        coord = RepairCoordinator(machine, sources=[StaticSource("fixed", {page: good})])
        scrubber = MemoryScrubber(machine, repair=coord)
        _poison(machine, page + 77, 3)
        t0 = ctxs[0].now()
        found = []
        while scrubber.stats.passes == 0:  # one patrol of the whole region
            found += scrubber.step(ctxs[0])
        assert found == [page]
        assert scrubber.stats.passes == 1
        assert scrubber.stats.latent_pages_found == 1
        assert scrubber.stats.repaired == 1
        assert scrubber.stats.bytes_scanned == machine.global_size
        assert ctxs[0].now() > t0  # patrol costs simulated time
        # no consumer ever saw the poison
        assert ctxs[0].load(page, REPAIR_PAGE, bypass_cache=True) == good

    def test_cursor_wraps_across_steps(self, rig, monkeypatch):
        machine, ctxs, _ = rig
        monkeypatch.setattr(scrub, "WINDOW_BYTES", machine.global_size // 4)
        scrubber = MemoryScrubber(machine)
        for _ in range(4):
            scrubber.step(ctxs[0])
        assert scrubber.stats.passes == 1
        assert scrubber.stats.windows_scanned == 4

    def test_predictor_driven_evacuation(self, rig):
        machine, ctxs, _ = rig
        page = _page(machine, 30)
        monitor = HealthMonitor(machine.faults.log)
        predictor = FailurePredictor(monitor)
        moved = []

        def evacuate(ctx, page_addr):
            moved.append(page_addr)
            return page_addr + REPAIR_PAGE  # pretend relocation

        scrubber = MemoryScrubber(machine, predictor=predictor, evacuate=evacuate)
        # a CE storm on one page pushes its EWMA over the threshold
        for i in range(20):
            machine.faults.inject_ce(page + i, now_ns=ctxs[0].now())
        scrubber.step(ctxs[0])
        assert moved == [page]
        assert scrubber.stats.evacuated == 1
        assert scrubber.stats.evacuations[page] == page + REPAIR_PAGE
        # history was reset so the dead frame is not re-evacuated
        assert page not in {r.page_addr for r in predictor.at_risk_pages()}
        scrubber.step(ctxs[0])
        assert scrubber.stats.evacuated == 1

    def test_failed_evacuation_is_counted_not_fatal(self, rig):
        machine, ctxs, _ = rig
        page = _page(machine, 31)
        monitor = HealthMonitor(machine.faults.log)
        predictor = FailurePredictor(monitor)

        def evacuate(ctx, page_addr):
            raise RuntimeError("no free frames")

        scrubber = MemoryScrubber(machine, predictor=predictor, evacuate=evacuate)
        for i in range(20):
            machine.faults.inject_ce(page + i, now_ns=ctxs[0].now())
        scrubber.step(ctxs[0])  # must not raise
        assert scrubber.stats.evacuation_failures >= 1
        assert scrubber.stats.evacuated == 0
