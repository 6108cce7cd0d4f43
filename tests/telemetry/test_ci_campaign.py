"""CI telemetry lane: one seeded chaos campaign with tracing on, whose
exported run must validate against the Chrome ``trace_event`` schema and
render the acceptance dashboard panels.

Run via ``pytest -m telemetry`` (the ``telemetry`` workflow lane)."""

import json

import pytest

from repro import telemetry
from repro.bench import build_rig
from repro.chaos import CampaignRunner, ChaosCampaign, event, survivor_liveness
from repro.telemetry import load_run, validate_chrome_trace
from repro.telemetry.dashboard import render_dashboard

pytestmark = pytest.mark.telemetry


def _campaign_run(tmp_path, name="run.json"):
    telemetry.reset()
    telemetry.enable(tracing=True)
    rig = build_rig()
    kernel = rig.kernel
    fd = kernel.fs.open(rig.c0, "/ci-data", create=True)
    kernel.fs.write(rig.c0, fd, 0, b"telemetry " * 512)
    campaign = ChaosCampaign(
        name="ci-telemetry",
        seed=424242,
        events=(
            event("ce_storm", at_step=0, count=8, node=1),
            event("ue_storm", at_step=2, count=2),
            event("correlated_lines", at_step=3, lines=2),
        ),
    )

    def workload(step, ctx):
        kernel.fs.read(ctx, kernel.fs.open(ctx, "/ci-data"), 0, 1024)
        ctx.advance(500.0)

    report = CampaignRunner(kernel).run(
        campaign, workload=workload, steps=8, invariants=[survivor_liveness()]
    )
    out = telemetry.TELEMETRY.export_json(
        tmp_path / name,
        meta={"campaign": campaign.name, "seed": campaign.seed},
    )
    telemetry.disable()
    return report, out


def test_campaign_exports_schema_valid_trace_and_dashboard(tmp_path):
    report, path = _campaign_run(tmp_path)
    assert not report.violations, report.violations
    assert "telemetry digest=" in report.journal

    run = load_run(path)  # raises if the schema or trace is invalid
    assert run["meta"]["campaign"] == "ci-telemetry"

    # trace: schema-valid, non-empty, carries the chaos causal trees
    trace = run["trace"]
    assert trace is not None
    n_events = validate_chrome_trace(trace)
    assert n_events > 0
    names = {e["name"] for e in trace["traceEvents"]}
    assert "chaos.step" in names
    assert any(n.startswith("chaos.event.") for n in names)

    # dashboard: the acceptance panels render from the same export
    dash = render_dashboard(run)
    assert "per-node health" in dash
    assert "cache hit%" in dash
    assert "-- reliability --" in dash
    assert "fault.ce" in dash  # CE storm landed in the registry
    assert "hottest traced paths" in dash

    # metrics actually flowed from the campaign traffic
    from repro.telemetry import MetricsRegistry

    reg = MetricsRegistry.from_snapshot(run["metrics"])
    machine_traffic = reg.counter_total("rack.machine", "cache.hit") + reg.counter_total(
        "rack.machine", "cache.miss"
    )
    assert machine_traffic > 0
    assert reg.counter_total("reliability", "fault.ce") >= 8


def test_exported_run_is_byte_deterministic(tmp_path):
    _, p1 = _campaign_run(tmp_path, "a.json")
    _, p2 = _campaign_run(tmp_path, "b.json")
    assert json.loads(p1.read_text()) == json.loads(p2.read_text())


def test_dashboard_cli_renders_export(tmp_path, capsys):
    _, path = _campaign_run(tmp_path)
    from repro.telemetry.__main__ import main

    assert main(["dashboard", str(path), "--flame"]) == 0
    out = capsys.readouterr().out
    assert "rack telemetry dashboard" in out
    assert "per-node health" in out
