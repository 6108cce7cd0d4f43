"""Chaos campaign engine tests: schedules, triggers, invariants, and the
byte-identical determinism guarantee.
"""

import pytest

from repro.bench import build_rig
from repro.chaos import (
    CampaignRunner,
    ChaosCampaign,
    ChaosEvent,
    event,
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
        with pytest.raises(ValueError, match="needs at_ns or at_step"):
            ChaosEvent(action="ue")

    @pytest.mark.parametrize("build, field", [
        (lambda: event("ue", at_ns=float("nan")), "ChaosEvent.at_ns"),  # was due at t = 0
        (lambda: event("ue", at_step=-3), "ChaosEvent.at_step"),
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
        ev = event("ue", at_ns=100.0, at_step=5)
        assert not ev.due(99.0, 6)  # time not reached
        assert not ev.due(150.0, 4)  # step not reached
        assert ev.due(100.0, 5)


class TestTriggers:
    def test_time_trigger_fires_at_simulated_time(self):
        rig = build_rig()
        campaign = ChaosCampaign(
            name="timed", seed=1, events=(event("ue", at_ns=rig.machine.max_time() + 5000.0),)
        )

        def workload(step, ctx):
            ctx.advance(2000.0)

        report = CampaignRunner(rig.kernel).run(campaign, workload=workload, steps=6, heal=False)
        (fired,) = report.fired
        assert fired.at_ns >= campaign.events[0].at_ns
        assert fired.step >= 2  # needed a few 2us steps to get there


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
        report = CampaignRunner(rig.kernel).run(
            campaign, steps=5, invariants=[survivor_liveness(min_alive=2)]
        )
        assert report.violations == []
        log = rig.machine.faults.log
        assert len(log.events(FaultKind.LINK_DOWN)) == 1
        assert len(log.events(FaultKind.LINK_UP)) == 1
        assert len(log.events(FaultKind.NODE_CRASH)) == 1
        assert rig.machine.nodes[1].alive

    def test_correlated_lines_hit_strided_pages(self):
        rig = build_rig()
        base = rig.machine.global_base + (1 << 22)
        campaign = ChaosCampaign(
            name="lines",
            seed=4,
            events=(event("correlated_lines", at_step=0, base=base, lines=3, stride=PAGE_SIZE),),
        )
        CampaignRunner(rig.kernel).run(campaign, steps=1, heal=False)
        for i in range(3):
            assert rig.machine.poisoned_addrs(base + i * PAGE_SIZE, PAGE_SIZE)


class TestInvariants:
    def test_no_survivors_halts_and_violates_liveness(self):
        rig = build_rig()
        campaign = ChaosCampaign(
            name="wipeout",
            seed=8,
            events=(event("node_crash", at_step=0, node=0), event("node_crash", at_step=0, node=1)),
        )
        report = CampaignRunner(rig.kernel).run(
            campaign, steps=4, invariants=[survivor_liveness()], heal=False
        )
        assert report.steps_run < 4  # halted early
        assert report.violations
        assert "halt=no-survivors" in report.journal

    def test_liveness_probe_bug_propagates(self, monkeypatch):
        rig = build_rig()

        def buggy_load(*args, **kwargs):
            raise TypeError("probe bug")

        monkeypatch.setattr(rig.machine, "load", buggy_load)
        with pytest.raises(TypeError, match="probe bug"):  # not "cannot reach global memory"
            survivor_liveness()(CampaignRunner(rig.kernel))


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

        return CampaignRunner(kernel).run(
            campaign, workload=workload, steps=6, invariants=[survivor_liveness()]
        )

    def test_same_seed_same_schedule_byte_identical_journal(self):
        a, b = self._run_once(), self._run_once()
        assert a.journal == b.journal
        assert a.journal == b.journal
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
        b = CampaignRunner(rig.kernel).run(campaign, steps=6)
        assert a.journal != b.journal

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
        assert a.journal == b.journal

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
