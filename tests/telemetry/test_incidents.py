"""The scored incident benchmark: determinism, pinned scores, MTTM
domination, offline scoring, CLI, and the dashboard timeline panel.

The live-run tests drive the ``ue-storm`` scenario (the smoke scenario)
end-to-end; scoring-unit tests work on small hand-built dumps so the
metric math is pinned independently of the simulator.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.telemetry import ADMITTED_SERIES, LOST_SERIES, TENANT_PREFIX
from repro.telemetry.dashboard import render_incident_timeline
from repro.telemetry.health.postmortem import render_postmortem
from repro.telemetry.health.recorder import FLIGHT_SCHEMA, FlightRecorder, dump_frames
from repro.telemetry.health.slo import default_objectives
from repro.telemetry.incidents import (
    blame_set,
    get_scenario,
    ground_truth,
    render_score,
    run_scenario,
    scenarios,
    score_dump,
)
from repro.telemetry.__main__ import main as incidents_main
from repro.telemetry.schema import DUMP, check
from repro.telemetry.spans import validate_chrome_trace

pytestmark = pytest.mark.incidents


@pytest.fixture(scope="module")
def detection_on():
    """Scenario name -> its detection-on arm, each run once per module."""
    runs = {}

    def arm(name):
        if name not in runs:
            runs[name] = run_scenario(get_scenario(name), detection=True)
        return runs[name]
    return arm


@pytest.fixture(scope="module")
def ue_storm_on(detection_on):
    return detection_on("ue-storm")


@pytest.fixture(scope="module")
def ue_storm_off():
    return run_scenario(get_scenario("ue-storm"), detection=False)


class TestCatalogue:
    def test_at_least_five_scenarios(self):
        table = scenarios()
        assert len(table) >= 5
        assert list(table)[0] == "ue-storm"  # the smoke/CI scenario
        seeds = [s.campaign.seed for s in table.values()]
        assert len(set(seeds)) == len(seeds)  # each seed distinct

    def test_unknown_scenario_lists_the_catalogue(self):
        with pytest.raises(KeyError, match="ue-storm"):
            get_scenario("nope")


class TestDeterminism:
    def test_two_runs_byte_identical(self, ue_storm_on):
        again = run_scenario(get_scenario("ue-storm"), detection=True)
        assert ue_storm_on.report.journal == again.report.journal
        assert ue_storm_on.report.digest == again.report.digest
        assert (json.dumps(ue_storm_on.dump, sort_keys=True)
                == json.dumps(again.dump, sort_keys=True))
        assert ue_storm_on.score == again.score

    def test_pinned_journal_digest(self, ue_storm_on, pin):
        # the whole pipeline (traffic, chaos, breakers, telemetry) in
        # one number: drift here means simulated behaviour changed
        pin(ue_storm_on.report.digest)

    def test_pinned_scores(self, ue_storm_on):
        score = ue_storm_on.score
        # first UE storm: scheduled at 6 ms, lands on the batch boundary
        # just before it
        assert score["t0_ns"] == pytest.approx(5982382.461436861, abs=1e-6)
        assert score["mttd_ns"] == pytest.approx(1767617.5385631388, abs=1e-6)
        assert score["mttm_ns"] == 0.0  # crash hook: no degraded window
        assert score["recovered"] is True
        loc = score["localization"]
        assert loc["recall"] == 1.0
        assert loc["f1"] == 1.0

    def test_an_alert_stamped_just_before_t0_in_its_window_detects(self):
        """Campaign seed 150 (the benchmark's seed-49 shift): the one correct
        alert is stamped with the start of the health window the first UE
        lands in, so it counts as detected at that window's end."""
        base = get_scenario("ue-storm")
        shifted = dataclasses.replace(
            base, campaign=dataclasses.replace(base.campaign, seed=150))
        score = run_scenario(shifted, detection=True).score
        t0, window = score["t0_ns"], base.window_ns
        assert score["mttd_ns"] == (t0 // window + 1) * window - t0
        assert 0.0 < score["mttd_ns"] < window

    def test_scoring_a_dump_offline_matches_the_live_score(self, ue_storm_on):
        rescored = score_dump(
            json.loads(json.dumps(ue_storm_on.dump)),
            availability_target=get_scenario("ue-storm").availability_target,
            scenario="ue-storm",
        )
        assert rescored == ue_storm_on.score


class TestDetectionArms:
    def test_detection_strictly_dominates_mttm(self, ue_storm_on, ue_storm_off):
        assert ue_storm_off.score["mttm_ns"] > ue_storm_on.score["mttm_ns"]
        assert ue_storm_off.score["mttm_ns"] == pytest.approx(
            8017617.538563139, abs=1e-6)

    def test_detection_off_loses_requests(self, ue_storm_off):
        blast = ue_storm_off.score["blast_radius"]
        assert blast["requests_lost"] == 45.0
        assert blast["tenants"]  # someone got hurt
        assert ue_storm_off.score["mttd_ns"] is None  # nothing watching

    def test_arms_share_ground_truth(self, ue_storm_on, ue_storm_off):
        t0_on, truth_on = ground_truth(ue_storm_on.dump)
        t0_off, truth_off = ground_truth(ue_storm_off.dump)
        assert t0_on == t0_off
        assert truth_on == truth_off


def _arm_digests(result) -> dict:
    """sha256 of the sorted-key dump, its postmortem, its scored incident
    timeline and the sorted-key score: reading a dump differently must not
    move a byte of any of them."""
    texts = {
        "dump": json.dumps(result.dump, sort_keys=True),
        "postmortem": render_postmortem(result.dump),
        "timeline": render_incident_timeline(result.dump, result.score),
        "score": json.dumps(result.score, sort_keys=True),
    }
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}


class TestEveryScenario:
    """The whole catalogue, not just the smoke scenario: what the retired
    ``bench_incidents`` full mode gated and CI never ran."""

    @pytest.mark.parametrize("name", list(scenarios()))
    def test_detection_detects_localises_replays_and_beats_off(self, name, pin, detection_on):
        scenario = get_scenario(name)
        on = detection_on(name)
        replay = run_scenario(scenario, detection=True)
        off = run_scenario(scenario, detection=False)
        assert on.score["mttd_ns"] is not None
        assert on.score["localization"]["recall"] > 0.0
        assert on.report.journal == replay.report.journal
        assert on.report.digest == replay.report.digest
        assert (json.dumps(on.dump, sort_keys=True)
                == json.dumps(replay.dump, sort_keys=True))
        assert on.score == replay.score
        assert off.score["mttm_ns"] > on.score["mttm_ns"]
        assert off.score["blast_radius"]["requests_lost"] > 0
        for arm in (on, off):  # the spec the loader checks holds all the writer writes
            check(json.loads(json.dumps(arm.dump)), DUMP)
        pin({"on": _arm_digests(on), "off": _arm_digests(off)})

    def test_every_stock_objective_fires_in_some_scenario(self, detection_on):
        """A stock objective no scenario can sample is evaluated on every
        window close and never pages: the catalogue must fire each one."""
        fired = {row["objective"] for name in scenarios()
                 for row in detection_on(name).dump["alerts"] if row["event"] == "firing"}
        stock = {objective.name for objective in default_objectives()}
        assert stock <= fired, f"never fired: {sorted(stock - fired)}"

    def test_windows_carry_only_the_series_a_reader_reads(self, detection_on):
        """The windows' tenant counters are the availability pair the SLO and
        the scorer read, and the one reliability gauge is the postmortem's."""
        tenant, gauges = set(), set()
        for frame in (f for name in scenarios() for f in dump_frames(detection_on(name).dump)):
            tenant.update(m for (_n, s, m) in frame.counters if s.startswith(TENANT_PREFIX))
            gauges.update(m for (_n, s, m) in frame.gauges if s == "reliability")
        assert tenant == {ADMITTED_SERIES, LOST_SERIES}
        assert gauges == {"scrub.evacuated"}


class TestTracing:
    def test_chrome_trace_exports_and_validates(self, ue_storm_on):
        n = validate_chrome_trace(
            json.loads(json.dumps(ue_storm_on.chrome_trace)))
        assert n > 0

    def test_critical_path_summary_present(self, ue_storm_on):
        assert ue_storm_on.critical_path.startswith("critical path:")
        assert "traffic.batch" in ue_storm_on.critical_path

    def test_dump_span_tail_has_request_path_spans(self, ue_storm_on):
        names = {row[0] for row in ue_storm_on.dump["spans"]}
        assert "traffic.batch" in names
        assert "traffic.attempt" in names


class TestScoringUnits:
    def _dump(self):
        return {
            "schema": FLIGHT_SCHEMA,
            "reason": "unit",
            "at_ns": 4e6,
            "windows": [
                {"index": 0, "start_ns": 0.0, "end_ns": 1e6, "windows": 1,
                 "counters": [[0, "traffic/web", "admitted", 100.0]],
                 "gauges": []},
                {"index": 1, "start_ns": 1e6, "end_ns": 2e6, "windows": 1,
                 "counters": [[0, "traffic/web", "admitted", 80.0],
                              [0, "traffic/web", "resilience.lost", 20.0]],
                 "gauges": []},
                {"index": 2, "start_ns": 2e6, "end_ns": 3e6, "windows": 1,
                 "counters": [[0, "traffic/web", "admitted", 100.0]],
                 "gauges": []},
            ],
            "alerts": [
                {"objective": "availability:web", "node": 0, "alert_id": 1,
                 "fired_ns": 1.2e6, "fast_burn": 9.0, "slow_burn": 2.0,
                 "event": "firing"},
                {"objective": "noise", "node": 1, "alert_id": 2,
                 "fired_ns": 0.1e6, "fast_burn": 9.0, "slow_burn": 2.0,
                 "event": "firing"},  # pre-injection: ignored
            ],
            "breakers": [
                {"tenant": "web", "target": 0, "from": "closed", "to": "open",
                 "t_ns": 1.1e6, "reason": "node-crash"},
            ],
            "boosts": [
                {"t_ns": 1.3e6, "cause": "ue", "pages": [0x2000]},
            ],
            "spans": [
                ["traffic.attempt", 0, 1.05e6, 1.06e6, 1,
                 {"outcome": "failed", "target": 1, "tenant": "web"}],
                ["old.row", 0, 1.0e6, 1.1e6, None, {}],  # not an attempt: skipped
            ],
            "fault_tail": {
                "0": [{"kind": "node_crash", "time_ns": 1e6, "addr": None,
                       "detail": ""}],
                "-1": [{"kind": "ue", "time_ns": 1.5e6, "addr": 0x2abc,
                        "detail": ""}],
            },
            "resilience": [],
            "atlas_links": [],
            "atlas_pages": [],
        }

    def test_ground_truth_sites_and_t0(self):
        t0, truth = ground_truth(self._dump())
        assert t0 == 1e6
        assert truth == {"node:0", "page:0x2000"}  # addr rounded to page

    def test_blame_set_sources_and_t0_filter(self):
        blame = blame_set(self._dump(), 1e6)
        # alert node0 + breaker open node0 + boost page + failed attempt
        # on target 1; the pre-t0 alert on node1 is excluded
        assert blame == {"node:0", "node:1", "page:0x2000"}

    def test_score_math(self):
        score = score_dump(self._dump(), availability_target=0.999,
                           scenario="unit")
        assert score["mttd_ns"] == pytest.approx(0.2e6)
        assert score["mttm_ns"] == pytest.approx(1e6)  # window 1 end - t0
        assert score["recovered"] is True  # last window back above target
        loc = score["localization"]
        assert loc["precision"] == pytest.approx(2 / 3, abs=1e-6)
        assert loc["recall"] == 1.0
        blast = score["blast_radius"]
        assert blast["requests_lost"] == 20.0
        assert blast["tenants"] == ["web"]
        assert blast["degraded_windows"] == 1

    def test_empty_dump_scores_clean(self):
        score = score_dump(FlightRecorder().snapshot("x", 0.0))
        assert score["t0_ns"] is None
        assert score["mttd_ns"] is None
        assert score["recovered"] is True

    def test_render_score_one_pager(self):
        text = render_score(score_dump(self._dump(), scenario="unit"))
        assert text.splitlines()[0] == "== incident score: unit =="
        assert "MTTD:              0.200 ms" in text
        assert "requests_lost=20" in text


class TestDashboardTimeline:
    def test_incident_timeline_panel(self, ue_storm_on):
        panel = render_incident_timeline(ue_storm_on.dump, ue_storm_on.score)
        assert "incident timeline — incident:ue-storm:on" in panel
        assert "INJECT" in panel
        assert "DETECTED" in panel
        assert "RECOVERED" in panel
        assert "BREAKER" in panel

    def test_timeline_without_score_omits_markers(self, ue_storm_on):
        panel = render_incident_timeline(ue_storm_on.dump)
        assert "INJECT" in panel
        assert "DETECTED" not in panel


class TestCli:
    def test_list(self, capsys):
        assert incidents_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in scenarios():
            assert name in out

    def test_score_and_replay_a_dump_file(self, ue_storm_on, tmp_path, capsys):
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(ue_storm_on.dump, sort_keys=True))
        assert incidents_main(["score", str(path)]) == 0
        out = capsys.readouterr().out
        assert "== incident score: incident:ue-storm:on ==" in out
        assert "MTTD:              1.768 ms" in out

        assert incidents_main(["replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "incident timeline" in out
        assert "== incident score:" in out

    def test_score_json_output(self, ue_storm_on, tmp_path, capsys):
        dump_path = tmp_path / "dump.json"
        dump_path.write_text(json.dumps(ue_storm_on.dump, sort_keys=True))
        score_path = tmp_path / "score.json"
        assert incidents_main(
            ["score", str(dump_path), "--json", str(score_path)]) == 0
        capsys.readouterr()
        written = json.loads(score_path.read_text())
        # the CLI infers the availability target from the dump reason, so
        # the offline score matches the live one metric-for-metric; only
        # the scenario label differs (the CLI uses the dump reason)
        assert written.pop("scenario") == "incident:ue-storm:on"
        live = dict(ue_storm_on.score)
        assert live.pop("scenario") == "ue-storm"
        assert written == live
