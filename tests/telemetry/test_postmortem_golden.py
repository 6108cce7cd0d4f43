"""Golden-output tests for the postmortem renderer and the
``python -m repro.telemetry postmortem`` CLI.

The postmortem view is an operator contract: scripts grep it, runbooks
quote it.  These tests pin the exact window-table and timeline text for
a fixed hand-built dump so format drift is a deliberate, reviewed
change."""

import copy
import json

import pytest

from repro.telemetry.__main__ import main as health_main
from repro.telemetry.health.postmortem import render_postmortem
from repro.telemetry.health.recorder import FLIGHT_SCHEMA

pytestmark = pytest.mark.health


def _dump() -> dict:
    return {
        "schema": FLIGHT_SCHEMA,
        "reason": "test:golden",
        "at_ns": 2_500_000.0,
        "windows": [
            {"index": 0, "start_ns": 0.0, "end_ns": 250_000.0, "windows": 1,
             "counters": [[0, "reliability", "fault.ce", 3.0]],
             "gauges": [[0, "reliability", "scrub.evacuated", 1.0]]},
            {"index": 1, "start_ns": 250_000.0, "end_ns": 500_000.0,
             "windows": 1,
             "counters": [[0, "reliability", "fault.ue", 1.0],
                          [0, "reliability", "repair.ok", 2.0]],
             "gauges": []},
        ],
        "alerts": [
            {"objective": "ce.rate", "node": 0, "alert_id": 1,
             "fired_ns": 300_000.0, "fast_burn": 3.5, "slow_burn": 1.25,
             "event": "firing"},
            {"objective": "ce.rate", "node": 0, "alert_id": 1,
             "fired_ns": 300_000.0, "resolved_ns": 900_000.0,
             "event": "resolved"},
        ],
        "breakers": [
            {"tenant": "web", "target": 0, "from": "closed", "to": "open",
             "t_ns": 310_000.0, "reason": "error-rate"},
            {"tenant": "web", "target": 0, "from": "open", "to": "closed",
             "t_ns": 810_000.0, "reason": "probe-ok"},
        ],
        "boosts": [
            {"t_ns": 260_000.0, "cause": "ce.rate", "pages": [4096, 8192]},
        ],
        "resilience": [
            {"t_ns": 500_000.0, "tenant": "web", "offered": 100,
             "admitted": 98, "failed": 2, "timed_out": 0, "retries": 3,
             "hedges": 1, "hedge_wins": 1, "failovers": 1, "shed": 0},
        ],
        "spans": [
            ["traffic.batch", 0, 100.0, 1_100.0, None,
             {"n": 16, "tenant": "web"}],
            ["traffic.attempt", 0, 100.0, 600.0, 1, {"outcome": "ok"}],
            ["chaos.step", 0, 2_000.0, 3_000.0, None],  # v1-style row
        ],
        "fault_tail": {
            "-1": [{"kind": "ue", "time_ns": 600_000.0, "addr": 8192,
                    "detail": "storm"}],
            "0": [{"kind": "ce", "time_ns": 100_000.0, "addr": 4096,
                   "detail": ""},
                  {"kind": "node_crash", "time_ns": 400_000.0, "addr": None,
                   "detail": "chaos"}],
        },
    }


GOLDEN_WINDOW_TABLE = [
    "-- windows (2 recorded) --",
    "window    span          ce      ue  repair.ok  repair.fail  evac",
    "     0         0.000us       3       0          0            0     1",
    "     1       250.000us       0       1          2            0     0",
]

GOLDEN_TIMELINE = [
    "-- degradation timeline (7 events) --",
    "     260.000us  BOOST          cause=ce.rate pages=0x1000,0x2000",
    "     300.000us  ALERT fired    ce.rate [node0] id=1 fast=3.50 slow=1.25",
    "     310.000us  BREAKER        web@node0 closed->open reason=error-rate",
    "     400.000us  FAULT          node_crash [node0] chaos",
    "     810.000us  BREAKER        web@node0 open->closed reason=probe-ok",
    "     900.000us  ALERT resolved ce.rate [node0] id=1",
    "    2500.000us  DUMP           reason=test:golden",
]

GOLDEN_SPAN_TAIL = [
    "-- span tail (3 spans) --",
    "       0.100us  traffic.batch [node0] 1000ns  {n=16 tenant=web}",
    "       0.100us  +- traffic.attempt [node0] 500ns  {outcome=ok}",
    "       2.000us  chaos.step [node0] 1000ns",
]

GOLDEN_RESILIENCE_TAIL = [
    "-- resilience tail (1 samples) --",
    "     500.000us  web: offered=100 admitted=98 failed=2 retries=3 "
    "failovers=1 shed=0",
]


def _section(report: str, header: str) -> list:
    """The report lines from ``header`` to the next blank line."""
    lines = report.splitlines()
    start = lines.index(header)
    end = start
    while end < len(lines) and lines[end] != "":
        end += 1
    return lines[start:end]


class TestGoldenSections:
    def test_window_table(self):
        report = render_postmortem(_dump())
        assert _section(report, GOLDEN_WINDOW_TABLE[0]) == GOLDEN_WINDOW_TABLE

    def test_timeline(self):
        report = render_postmortem(_dump())
        assert _section(report, GOLDEN_TIMELINE[0]) == GOLDEN_TIMELINE

    def test_span_tail_renders_args_and_v1_rows(self):
        report = render_postmortem(_dump())
        assert _section(report, GOLDEN_SPAN_TAIL[0]) == GOLDEN_SPAN_TAIL

    def test_resilience_tail(self):
        report = render_postmortem(_dump())
        assert (_section(report, GOLDEN_RESILIENCE_TAIL[0])
                == GOLDEN_RESILIENCE_TAIL)

    def test_header_names_reason_and_schema(self):
        report = render_postmortem(_dump())
        lines = report.splitlines()
        assert lines[1] == "FLIGHT RECORDER POSTMORTEM — test:golden"
        assert lines[2] == ("dumped at     2500.000us simulated "
                            f"({FLIGHT_SCHEMA})")

    def test_fault_log_tail_counts(self):
        report = render_postmortem(_dump())
        assert "    rack: 1 recent events (ue=1)" in report
        assert "   node0: 2 recent events (ce=1 node_crash=1)" in report


class TestV1Dump:
    def test_v1_renders_without_v2_sections(self):
        dump = _dump()
        for key in ("breakers", "boosts", "resilience"):
            del dump[key]
        dump["spans"] = [row[:5] for row in dump["spans"]]
        report = render_postmortem(dump)
        assert "-- resilience tail" not in report
        assert "BREAKER" not in report
        assert "BOOST" not in report
        # timeline shrinks to the non-breaker events
        assert "-- degradation timeline (4 events) --" in report

    def test_unknown_schema_rejected(self):
        dump = _dump()
        dump["schema"] = "nope"
        with pytest.raises(ValueError, match="not a flight-recorder dump"):
            render_postmortem(dump)


class TestCli:
    def test_postmortem_cli_prints_report(self, tmp_path, capsys):
        path = tmp_path / "box.json"
        path.write_text(json.dumps(_dump(), sort_keys=True))
        assert health_main(["postmortem", str(path)]) == 0
        out = capsys.readouterr().out
        for line in GOLDEN_WINDOW_TABLE + GOLDEN_TIMELINE:
            assert line in out

    def test_cli_rejects_non_dump(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"schema": "junk"}))
        assert health_main(["postmortem", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_rendering_is_pure(self):
        dump = _dump()
        before = copy.deepcopy(dump)
        render_postmortem(dump)
        assert dump == before
