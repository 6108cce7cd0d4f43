"""Health-lane acceptance: seeded chaos campaigns with the health engine
attached must fire/resolve the expected burn alerts deterministically,
drive predictor-led evacuation, and produce byte-identical flight
recorder dumps the postmortem CLI can render.

Run via ``pytest -m health`` (the ``health`` CI lane)."""

import json

import pytest

from repro import telemetry
from repro.bench import build_rig
from repro.chaos import CampaignRunner, ChaosCampaign, event, survivor_liveness
from repro.core.memory import PAGE_SIZE
from repro.telemetry.health import FlightRecorder, load_dump, render_postmortem
from repro.telemetry.health.recorder import check_schema
from repro.telemetry.__main__ import main as health_cli

pytestmark = pytest.mark.health

_WINDOW_NS = 2000.0


def _rig_with_replicated_box():
    """A rig with one replica-protected box (so UE repair succeeds and
    evacuation has a readable page to move)."""
    telemetry.enable(tracing=True)
    rig = build_rig()
    kernel = rig.kernel
    box = kernel.boxes.create_box(rig.c0, "victim", criticality=2)
    base = box.aspace.mmap(rig.c0, 2 * PAGE_SIZE)
    box.aspace.write(rig.c0, base, b"protected " * 100)
    box.aspace.write(rig.c0, base + PAGE_SIZE, b"magnet " * 64)
    kernel.replicator.enable(box)
    kernel.replicator.sync(rig.c0, box)
    frames = [
        box.aspace.page_table.try_translate(rig.c0, base).frame_addr,
        box.aspace.page_table.try_translate(rig.c0, base + PAGE_SIZE).frame_addr,
    ]
    return rig, kernel, frames


def _workload(step, ctx):
    ctx.advance(_WINDOW_NS)


def _ue_burn_campaign(frames):
    return ChaosCampaign(
        name="ue-burn",
        seed=7,
        events=(
            event("ue_storm", at_step=2, count=4, targets=frames),
            event("ue_storm", at_step=3, count=4, targets=frames),
        ),
    )


def _run_ue_burn(tmp_path, tag):
    rig, kernel, frames = _rig_with_replicated_box()
    dump_path = tmp_path / f"dump-{tag}.json"
    health = kernel.attach_health(window_ns=_WINDOW_NS, dump_path=dump_path)
    report = CampaignRunner(kernel).run(
        _ue_burn_campaign(frames),
        workload=_workload,
        steps=24,
        invariants=[survivor_liveness()],
    )
    return rig, kernel, health, report, dump_path, frames


class TestUeBurnAcceptance:
    def test_alert_fires_evacuates_and_resolves(self, tmp_path):
        rig, kernel, health, report, dump_path, frames = _run_ue_burn(tmp_path, "a")
        assert not report.violations, report.violations

        # the UE burn alert went through its full lifecycle
        assert {a.objective for a in health.slo.alerts} == {"ue.rate"}
        assert all(a.state == "resolved" for a in health.slo.alerts)

        # the alert marked the storm's pages at risk and the scrubber
        # evacuated them through the existing repair pipeline
        assert set(health.boosted) == set(frames)
        assert kernel.scrubber.stats.evacuated >= len(frames)
        for frame in frames:
            assert frame in kernel.scrubber.stats.evacuations
            assert frame in kernel.memory.quarantined_frames

        # the storm tripped a flight-recorder dump, on disk and in memory
        assert [d["reason"] for d in health.dumps] == ["ue_storm"]
        assert load_dump(dump_path)["reason"] == "ue_storm"

        # the journal carries the health transitions with step prefixes
        assert "health alert=firing" in report.journal
        assert "health alert=resolved" in report.journal
        assert "health boost cause=ue.rate" in report.journal
        assert "health dump reason=ue_storm" in report.journal

    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        _, _, health_a, report_a, dump_a, _ = _run_ue_burn(tmp_path, "a")
        journal_a = report_a.journal
        dump_bytes_a = dump_a.read_bytes()
        telemetry.disable()
        telemetry.reset()
        _, _, health_b, report_b, dump_b, _ = _run_ue_burn(tmp_path, "b")

        assert report_b.journal == journal_a
        assert dump_b.read_bytes() == dump_bytes_a
        ids_a = [a.alert_id for a in health_a.slo.alerts]
        ids_b = [a.alert_id for a in health_b.slo.alerts]
        assert ids_a == ids_b and ids_a

    def test_health_observation_adds_zero_simulated_ns(self, tmp_path):
        """Identical fault-free runs with health on vs off end at the
        same simulated instant on every node (golden latencies hold)."""
        clocks = []
        for attach in (False, True):
            telemetry.disable()
            telemetry.reset()
            telemetry.enable()
            rig = build_rig()
            kernel = rig.kernel
            if attach:
                kernel.attach_health(window_ns=_WINDOW_NS)
            fd = kernel.fs.open(rig.c0, "/data", create=True)
            kernel.fs.write(rig.c0, fd, 0, b"payload " * 256)
            campaign = ChaosCampaign(name="calm", seed=3, events=())
            CampaignRunner(kernel).run(
                campaign, workload=_workload, steps=16
            )
            clocks.append({n: rig.machine.now(n) for n in rig.machine.nodes})
        assert clocks[0] == clocks[1]


class TestCeStormAlerts:
    def test_ce_rate_fires_and_resolves(self):
        telemetry.enable()
        rig = build_rig()
        kernel = rig.kernel
        kernel.attach_health(window_ns=_WINDOW_NS)
        campaign = ChaosCampaign(
            name="ce-burn",
            seed=11,
            events=(
                event("ce_storm", at_step=1, count=24, node=1),
                event("ce_storm", at_step=2, count=24, node=1),
            ),
        )
        report = CampaignRunner(kernel).run(
            campaign,
            workload=_workload,
            steps=24,
        )
        assert not report.violations, report.violations
        ce = [a for a in kernel.health.slo.alerts if a.objective == "ce.rate"]
        assert ce and all(a.state == "resolved" for a in ce)

    def test_missing_alert_is_a_violation(self):
        telemetry.enable()
        rig = build_rig()
        kernel = rig.kernel
        kernel.attach_health(window_ns=_WINDOW_NS)

        def ue_alert_fired(runner):
            if not any(a.objective == "ue.rate" for a in runner.health.slo.alerts):
                return "expected alerts never fired: ue.rate"
            return None

        campaign = ChaosCampaign(name="calm", seed=5, events=())
        report = CampaignRunner(kernel).run(
            campaign,
            workload=_workload,
            steps=6,
            invariants=[ue_alert_fired],
        )
        assert report.violations
        assert "expected alerts never fired: ue.rate" in report.violations[0]
        # the violation itself triggered a black-box dump
        assert any(d["reason"].startswith("invariant:") for d in kernel.health.dumps)


class TestFlightRecorder:
    def test_node_crash_dumps_via_machine_hook(self, tmp_path):
        telemetry.enable()
        rig = build_rig()
        kernel = rig.kernel
        health = kernel.attach_health(
            window_ns=_WINDOW_NS, dump_path=tmp_path / "crash.json"
        )
        for i in range(4):
            rig.c0.advance(_WINDOW_NS)
            health.tick()
        rig.machine.crash_node(1)
        assert [d["reason"] for d in health.dumps] == ["node_crash:1"]
        data = load_dump(tmp_path / "crash.json")
        assert data["reason"] == "node_crash:1"
        assert any(
            ev["kind"] == "node_crash" for ev in data["fault_tail"].get("1", [])
        )

    def test_snapshot_from_snapshot_round_trip(self, tmp_path):
        """The storm dump on disk is the in-memory snapshot, byte for byte."""
        _, _, health, _, dump_path, _ = _run_ue_burn(tmp_path, "rt")
        data = check_schema(load_dump(dump_path))
        assert dump_path.read_text() == json.dumps(
            health.dumps[0], indent=2, sort_keys=True
        ) + "\n"
        assert data == json.loads(json.dumps(health.dumps[0]))

    def test_from_snapshot_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            check_schema({"schema": "something/else"})

    def test_ring_is_bounded(self):
        from repro.telemetry.health import WindowFrame

        rec = FlightRecorder(capacity_windows=4)
        for i in range(10):
            rec.record_frame(
                WindowFrame(index=i, start_ns=i * 10.0, end_ns=i * 10.0 + 10.0, windows=1)
            )
        assert len(rec.frames) == 4
        assert rec.frames[0].index == 6

    @pytest.mark.parametrize("field, bad", [
        ("span_tail", 0), ("span_tail", -2), ("span_tail", 1.5), ("span_tail", None),
        ("capacity_windows", 0), ("capacity_windows", -1), ("capacity_windows", True),
    ])
    def test_sizes_below_one_are_refused_by_name(self, field, bad):
        """``span_tail=0`` would dump every span (``spans[-0:]``), a negative
        tail drop the oldest ones, a negative capacity fail inside ``deque``."""
        with pytest.raises(ValueError, match=f"FlightRecorder.{field} must be an integer >= 1"):
            FlightRecorder(**{field: bad})


class TestPostmortem:
    def test_render_shows_degradation_timeline(self, tmp_path):
        # crash after the campaign: the crash dump carries the whole
        # story — storm, alert lifecycle, and the crash itself
        rig, _, _, _, dump_path, _ = _run_ue_burn(tmp_path, "pm")
        rig.machine.crash_node(1)
        data = load_dump(dump_path)
        assert data["reason"] == "node_crash:1"
        out = render_postmortem(data)
        assert "FLIGHT RECORDER POSTMORTEM" in out
        assert "degradation timeline" in out
        assert "ALERT fired    ue.rate [rack]" in out
        assert "ALERT resolved ue.rate [rack]" in out
        assert "FAULT          node_crash [node1]" in out
        assert "-- windows" in out
        assert "fault log tail" in out

    def test_cli_renders_dump(self, tmp_path, capsys):
        _, _, _, _, dump_path, _ = _run_ue_burn(tmp_path, "cli")
        assert health_cli(["postmortem", str(dump_path)]) == 0
        out = capsys.readouterr().out
        assert "FLIGHT RECORDER POSTMORTEM" in out
        assert "reason=ue_storm" in out

    def test_cli_rejects_non_dump(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        assert health_cli(["postmortem", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_render_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            render_postmortem({"schema": "nope"})
