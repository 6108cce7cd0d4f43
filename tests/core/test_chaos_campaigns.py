"""Chaos campaign engine tests: schedules, triggers, invariants, and the
byte-identical determinism guarantee.
"""

import pytest

from repro.bench import build_rig
from repro.chaos import (
    CampaignRunner,
    ChaosCampaign,
    ChaosEvent,
    committed_files_intact,
    event,
    region_bytes_intact,
    render_fault_log,
    survivor_liveness,
)
from repro.core.memory import PAGE_SIZE
from repro.rack import FaultKind

pytestmark = pytest.mark.chaos


class TestScheduleValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            event("meteor_strike", at_step=0)

    def test_event_needs_a_trigger(self):
        with pytest.raises(ValueError, match="needs at_ns, at_access, or at_step"):
            ChaosEvent(action="ue")

    @pytest.mark.parametrize("build, field", [
        (lambda: event("ue", at_ns=float("nan")), "ChaosEvent.at_ns"),  # was due at t = 0
        (lambda: event("ue", at_access=-3), "ChaosEvent.at_access"),
        (lambda: ChaosCampaign(name="c", seed=1.5, events=()), "ChaosCampaign.seed"),
        (lambda: ChaosCampaign(name="c", seed=1, events=[1, 2]), "ChaosCampaign.events"),
    ])
    def test_hostile_schedule_is_refused_naming_class_and_field(self, build, field):
        with pytest.raises(ValueError, match=rf"{field} must be .*, got "):
            build()

    def test_params_frozen_and_sorted(self):
        ev = event("ue_storm", at_step=0, targets=[3, 1], count=2)
        assert ev.params == (("count", 2), ("targets", (3, 1)))
        assert hash(ev)  # usable as a table key

    def test_trigger_due_logic(self):
        ev = event("ue", at_ns=100.0, at_access=50)
        assert not ev.due(99.0, 60, 0)  # time not reached
        assert not ev.due(150.0, 49, 0)  # accesses not reached
        assert ev.due(100.0, 50, 0)


class TestTriggers:
    def test_time_trigger_fires_at_simulated_time(self):
        rig = build_rig()
        campaign = ChaosCampaign(
            name="timed", seed=1, events=(event("ue", at_ns=rig.machine.max_time() + 5000.0),)
        )

        def workload(step, ctx):
            ctx.advance(2000.0)

        report = CampaignRunner(rig.machine).run(campaign, workload=workload, steps=6, heal=False)
        (fired,) = report.fired
        assert fired.at_ns >= campaign.events[0].at_ns
        assert fired.step >= 2  # needed a few 2us steps to get there

    def test_access_count_trigger(self):
        rig = build_rig()
        runner = CampaignRunner(rig.machine)
        base_accesses = runner.total_accesses()
        campaign = ChaosCampaign(
            name="counted", seed=1, events=(event("ue", at_access=base_accesses + 40),)
        )
        addr = rig.machine.global_base + (1 << 20)

        def workload(step, ctx):
            for i in range(16):
                ctx.load(addr + i * 64, 8)

        report = runner.run(campaign, workload=workload, steps=6, heal=False)
        (fired,) = report.fired
        assert fired.step >= 1


class TestActions:
    def test_link_flap_and_crash_restart(self):
        rig = build_rig()
        campaign = ChaosCampaign(
            name="infra",
            seed=3,
            events=(
                event("link_down", at_step=0, node=1),
                event("link_up", at_step=1, node=1),
                event("node_crash", at_step=2, node=1),
                event("node_restart", at_step=3, node=1),
            ),
        )
        report = CampaignRunner(rig.machine, kernel=rig.kernel).run(
            campaign, steps=5, invariants=[survivor_liveness(min_alive=2)]
        )
        assert report.violations == []
        log = rig.machine.faults.log
        assert log.count(FaultKind.LINK_DOWN) == 1
        assert log.count(FaultKind.LINK_UP) == 1
        assert log.count(FaultKind.NODE_CRASH) == 1
        assert rig.machine.nodes[1].alive

    def test_correlated_lines_hit_strided_pages(self):
        rig = build_rig()
        base = rig.machine.global_base + (1 << 22)
        campaign = ChaosCampaign(
            name="lines",
            seed=4,
            events=(event("correlated_lines", at_step=0, base=base, lines=3, stride=PAGE_SIZE),),
        )
        CampaignRunner(rig.machine).run(campaign, steps=1, heal=False)
        for i in range(3):
            assert rig.machine.poisoned_addrs(base + i * PAGE_SIZE, PAGE_SIZE)

    def test_compact_log_action(self):
        rig = build_rig()
        for i in range(10):
            rig.machine.faults.inject_ce(rig.machine.global_base + i, now_ns=float(i))
        campaign = ChaosCampaign(
            name="compact", seed=5, events=(event("compact_log", at_step=0, before_ns=5.0),)
        )
        CampaignRunner(rig.machine).run(campaign, steps=1, heal=False)
        assert len(rig.machine.faults.log) == 5
        assert rig.machine.faults.log.total_recorded == 10


class TestInvariants:
    def test_committed_file_corruption_detected(self):
        rig = build_rig()
        kernel = rig.kernel
        fd = kernel.fs.open(rig.c0, "/claim", create=True)
        kernel.fs.write(rig.c0, fd, 0, b"the truth")
        check = committed_files_intact({"/claim": b"a falsehood"})
        runner = CampaignRunner(rig.machine, kernel=kernel)
        campaign = ChaosCampaign(name="noop", seed=6, events=())
        report = runner.run(campaign, steps=1, invariants=[check])
        assert report.violations and "corrupt" in report.violations[0]

    def test_region_bytes_detect_silent_corruption(self):
        rig = build_rig()
        addr = rig.machine.global_base + (1 << 21)
        rig.c0.store(addr, b"golden", bypass_cache=True)
        rig.machine.faults.inject_bitflip(rig.machine.global_mem, addr - rig.machine.global_base)
        campaign = ChaosCampaign(name="sdc", seed=7, events=())
        report = CampaignRunner(rig.machine).run(
            campaign, steps=1, invariants=[region_bytes_intact(addr, b"golden")]
        )
        assert report.violations and "corrupt" in report.violations[0]

    def test_no_survivors_halts_and_violates_liveness(self):
        rig = build_rig()
        campaign = ChaosCampaign(
            name="wipeout",
            seed=8,
            events=(event("node_crash", at_step=0, node=0), event("node_crash", at_step=0, node=1)),
        )
        report = CampaignRunner(rig.machine).run(
            campaign, steps=4, invariants=[survivor_liveness()], heal=False
        )
        assert report.steps_run < 4  # halted early
        assert report.violations
        assert "halt=no-survivors" in report.journal


class TestDeterminism:
    def _run_once(self):
        rig = build_rig()
        kernel = rig.kernel
        fd = kernel.fs.open(rig.c0, "/data", create=True)
        kernel.fs.write(rig.c0, fd, 0, b"payload " * 64)
        campaign = ChaosCampaign(
            name="replay",
            seed=2024,
            events=(
                event("ce_storm", at_step=0, count=16),
                event("ue_storm", at_step=1, count=4),
                event("correlated_lines", at_step=2, lines=3),
                event("node_crash", at_step=3),
                event("node_restart", at_step=4),
            ),
        )

        def workload(step, ctx):
            kernel.fs.read(ctx, kernel.fs.open(ctx, "/data"), 0, 512)
            ctx.advance(250.0)

        return CampaignRunner(rig.machine, kernel=kernel).run(
            campaign, workload=workload, steps=6, invariants=[survivor_liveness()]
        )

    def test_same_seed_same_schedule_byte_identical_journal(self):
        a, b = self._run_once(), self._run_once()
        assert a.journal == b.journal
        assert a.digest == b.digest
        # the journal embeds the full fault+repair event log, so identical
        # digests mean injection AND self-healing replayed identically
        assert "-- fault log --" in a.journal

    def test_different_seed_diverges(self):
        a = self._run_once()
        rig = build_rig()
        campaign = ChaosCampaign(
            name="replay",
            seed=2025,  # only the seed differs
            events=(event("ue_storm", at_step=1, count=4),),
        )
        b = CampaignRunner(rig.machine, kernel=rig.kernel).run(campaign, steps=6)
        assert a.digest != b.digest

    def test_fault_log_render_is_stable(self):
        rig = build_rig()
        rig.machine.faults.inject_ce(rig.machine.global_base + 64, node_id=1, now_ns=10.0)
        out = render_fault_log(rig.machine.faults.log)
        assert out == f"ce t=10.0 addr={rig.machine.global_base + 64:#x} node=1 "

    def test_telemetry_digest_in_journal_is_deterministic(self):
        """ISSUE 4 satellite: with telemetry on, the journal carries a
        sorted-counter delta digest and stays byte-identical across
        same-seed runs — even though the global registry is dirty with
        the first run's metrics by the time the second one starts."""
        from repro import telemetry

        telemetry.reset()
        telemetry.enable()
        try:
            a = self._run_once()
            b = self._run_once()
        finally:
            telemetry.disable()
            telemetry.reset()
        assert "telemetry digest=" in a.journal
        assert a.journal == b.journal
        assert a.digest == b.digest

    def test_journal_identical_with_and_without_telemetry_modulo_digest(self):
        """Telemetry must not perturb the run itself: stripping the digest
        line from an instrumented journal yields the uninstrumented one."""
        from repro import telemetry

        plain = self._run_once()
        telemetry.reset()
        telemetry.enable()
        try:
            instrumented = self._run_once()
        finally:
            telemetry.disable()
            telemetry.reset()
        stripped = "\n".join(
            line for line in instrumented.journal.splitlines()
            if not line.startswith("telemetry digest=")
        ) + "\n"
        assert stripped == plain.journal
