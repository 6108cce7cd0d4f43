"""Flight recorder: breaker/resilience/boost tails, round-trip,
byte-identity, and the one accepted schema."""

import json

import pytest

from repro import telemetry
from repro.bench.harness import build_rig
from repro.chaos.schedule import ChaosCampaign, event
from repro.telemetry import TELEMETRY
from repro.telemetry.health.postmortem import render_postmortem
from repro.telemetry.health.recorder import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    load_dump,
)
from repro.workloads import TenantSpec
from repro.workloads.resilience import ChaosUnderLoad, ResilientTrafficEngine, default_spec

pytestmark = pytest.mark.health


def _tenants():
    return [TenantSpec(name="web", rate_rps=200_000.0, node=0, n_keys=256,
                       max_backlog_ns=5e6)]


def _campaign(seed=3):
    return ChaosCampaign(
        name="crash-storm",
        seed=seed,
        events=(
            event("link_down", at_ns=1e6, node=0),
            event("link_up", at_ns=3e6, node=0),
            event("node_crash", at_ns=4e6, node=0),
            event("node_restart", at_ns=20e6, node=0),
        ),
    )


def _dump(seed=7):
    """One instrumented chaos-under-load run snapshotted into a dump."""
    telemetry.enable(tracing=True)
    try:
        rig = build_rig(n_nodes=2)
        recorder = FlightRecorder(capacity_windows=128, span_tail=128)
        health = rig.kernel.attach_health(recorder=recorder)
        eng = ResilientTrafficEngine(rig.kernel, _tenants(),
                                     resilience=default_spec(replica_node=1),
                                     seed=seed)
        cul = ChaosUnderLoad(rig.kernel, eng, _campaign(), health=health)
        cul.run(duration_ns=25e6)
        health.tick(rig.machine.max_time())
        cul.sync_recorder()
        return recorder.snapshot("test:v2", rig.machine.max_time(),
                                 machine=rig.machine, trace=TELEMETRY.trace)
    finally:
        telemetry.disable()
        telemetry.reset()


@pytest.fixture(scope="module")
def dump():
    return _dump()


class TestV2Content:
    def test_schema_and_new_sections(self, dump):
        # schema moved to /3 (atlas tails) — the v2 sections must survive
        assert dump["schema"] == FLIGHT_SCHEMA == "repro.telemetry.flightrec/3"
        assert dump["breakers"], "crash campaign tripped no breakers"
        assert dump["resilience"], "no resilience counter samples recorded"
        for ev in dump["breakers"]:
            assert set(ev) == {"tenant", "target", "from", "to", "t_ns", "reason"}
        for sample in dump["resilience"]:
            assert {"t_ns", "tenant", "offered", "admitted", "failed"} <= set(sample)

    def test_breaker_tail_matches_engine_transitions(self, dump):
        # the node crash must show up as an open transition on node 0
        opens = [ev for ev in dump["breakers"] if ev["to"] == "open"]
        assert any(ev["target"] == 0 for ev in opens)
        reasons = {ev["reason"] for ev in dump["breakers"]}
        assert reasons & {"error-rate", "node-crash", "probe-ok", "probe-failed"}

    def test_span_tail_rows_carry_parent_and_args(self, dump):
        assert dump["spans"]
        for row in dump["spans"]:
            assert len(row) == 6
            name, node, start_ns, end_ns, parent_id, args = row
            assert isinstance(name, str) and isinstance(args, dict)
            assert end_ns >= start_ns
        names = {row[0] for row in dump["spans"]}
        assert "traffic.batch" in names

    def test_dump_json_round_trips(self, dump):
        assert dump == json.loads(json.dumps(dump))


class TestDeterminism:
    def test_same_seed_byte_identical_dump(self, dump):
        again = _dump()
        assert json.dumps(dump, sort_keys=True) == json.dumps(again, sort_keys=True)

    def test_from_snapshot_resnapshots_exactly(self, dump):
        rec = FlightRecorder.from_snapshot(dump)
        again = rec.snapshot(dump["reason"], dump["at_ns"])
        assert json.dumps(again, sort_keys=True) == json.dumps(dump, sort_keys=True)

    def test_load_dump_round_trip(self, dump, tmp_path):
        path = tmp_path / "box.json"
        FlightRecorder.from_snapshot(dump).dump(path, dump["reason"], dump["at_ns"])
        assert load_dump(path) == dump


class TestBackwardCompat:
    def _v1(self):
        return {
            "schema": FLIGHT_SCHEMA,
            "reason": "old",
            "at_ns": 1000.0,
            "windows": [],
            "alerts": [],
            "anomalies": [],
            "incidents": [],
            "spans": [["chaos.step", 0, 0.0, 10.0, None]],
            "fault_tail": {},
        }

    def test_v1_accepted_with_empty_new_tails(self):
        """A dump carrying only the original sections loads; the tag decides."""
        rec = FlightRecorder.from_snapshot(self._v1())
        assert not rec.breaker_events
        assert not rec.resilience_samples
        assert not rec.boosts
        snap = rec.snapshot("old", 1000.0)
        assert snap["schema"] == FLIGHT_SCHEMA
        assert snap["breakers"] == snap["resilience"] == snap["boosts"] == []
        assert snap["spans"] == [["chaos.step", 0, 0.0, 10.0, None]]

    def test_older_schema_tag_refused(self, tmp_path):
        old = dict(self._v1(), schema="repro.telemetry.flightrec/2")
        with pytest.raises(ValueError, match="not a flight-recorder dump"):
            FlightRecorder.from_snapshot(old)
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(old))
        with pytest.raises(ValueError, match="not a flight-recorder dump"):
            load_dump(path)
        with pytest.raises(ValueError, match="not a flight-recorder dump"):
            render_postmortem(old)

    def test_unknown_schema_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not a flight-recorder dump"):
            FlightRecorder.from_snapshot({"schema": "repro.telemetry.flightrec/99"})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ValueError, match="not a flight-recorder dump"):
            load_dump(path)
