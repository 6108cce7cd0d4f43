"""Flight recorder: breaker/resilience/boost tails, round-trip,
byte-identity, the one accepted schema, and the read-side views."""

import json

import pytest

from repro import telemetry
from repro.bench.harness import build_rig
from repro.chaos.schedule import ChaosCampaign, event
from repro.telemetry import TELEMETRY
from repro.telemetry.health import recorder as rec
from repro.telemetry.health.recorder import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    dump_events,
    load_dump,
)
from repro.telemetry.schema import DUMP, check
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


def _dump(seed=7, path=None):
    """One instrumented chaos-under-load run snapshotted into a dump (and
    written to ``path`` when one is given)."""
    telemetry.enable(tracing=True)
    try:
        rig = build_rig(n_nodes=2)
        recorder = FlightRecorder(capacity_windows=128, span_tail=128)
        health = rig.kernel.attach_health(recorder=recorder)
        eng = ResilientTrafficEngine(rig.kernel, _tenants(),
                                     resilience=default_spec(replica_node=1),
                                     seed=seed)
        cul = ChaosUnderLoad(rig.kernel, eng, _campaign())
        cul.run(duration_ns=25e6)
        health.tick(rig.machine.max_time())
        cul.sync_recorder()
        snap = recorder.snapshot("test:v2", rig.machine.max_time(),
                                 machine=rig.machine, trace=TELEMETRY.trace)
        if path is not None:
            path.write_text(json.dumps(snap, indent=2, sort_keys=True) + "\n")
        return snap
    finally:
        telemetry.disable()
        telemetry.reset()


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """``(dump, path)``: the run's dump and the file the recorder wrote."""
    path = tmp_path_factory.mktemp("flightrec") / "box.json"
    return _dump(path=path), path


@pytest.fixture(scope="module")
def dump(written):
    return written[0]


class TestV2Content:
    def test_schema_and_new_sections(self, dump):
        # schema moved to /3 (atlas tails), then /4 (no anomaly, incident or
        # window-histogram rows), then /5 (link tail rows without capacity,
        # saturation or blame) — the v2 sections must survive
        assert dump["schema"] == FLIGHT_SCHEMA == "repro.telemetry.flightrec/5"
        assert not {"anomalies", "incidents"} & set(dump)
        assert all("hists" not in row for row in dump["windows"])
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

    def test_from_snapshot_resnapshots_exactly(self, written):
        """The written file is the snapshot's sorted-key JSON, byte for byte."""
        dump, path = written
        assert path.read_text() == json.dumps(dump, indent=2, sort_keys=True) + "\n"

    def test_load_dump_round_trip(self, written):
        dump, path = written
        assert load_dump(path) == dump


class TestBackwardCompat:
    def test_older_schema_tag_refused(self, tmp_path, dump):
        old = dict(dump, schema="repro.telemetry.flightrec/3")
        with pytest.raises(ValueError, match="not a flight-recorder dump"):
            check(old, DUMP)
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(old))
        with pytest.raises(ValueError, match="not a flight-recorder dump"):
            load_dump(path)

    def test_unknown_schema_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not a flight-recorder dump"):
            check({"schema": "repro.telemetry.flightrec/99"}, DUMP)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ValueError, match="not a flight-recorder dump"):
            load_dump(path)


class TestReadSide:
    def test_one_event_per_row_oldest_first(self):
        """One row in every dated section: one event each, in time order
        whatever order the sections are written in."""
        dump = {
            "schema": FLIGHT_SCHEMA, "reason": "unit", "at_ns": 1e4, "windows": [],
            "atlas_links": [{"link": "gmem|node:1", "downs": [900.0]}],
            "spans": [["traffic.attempt", 1, 800.0, 850.0, None, {"outcome": "ok"}]],
            "resilience": [{"t_ns": 700.0, "tenant": "web"}],
            "boosts": [{"t_ns": 600.0, "cause": "ue", "pages": [4096]}],
            "breakers": [{"tenant": "web", "target": 1, "from": "closed",
                          "to": "open", "t_ns": 500.0, "reason": "node-crash"}],
            "fault_tail": {"1": [{"kind": "node_crash", "time_ns": 400.0,
                                  "addr": None, "detail": ""}]},
            "alerts": [{"objective": "ue.rate", "node": -1, "fired_ns": 100.0,
                        "event": "firing"}],
        }
        events = dump_events(dump)
        assert [(e.t_ns, e.kind, e.node) for e in events] == [
            (100.0, rec.ALERT_FIRED, -1),
            (400.0, rec.FAULT, 1),
            (500.0, rec.BREAKER, 1),
            (600.0, rec.BOOST, -1),
            (700.0, rec.RESILIENCE, -1),
            (800.0, rec.SPAN, 1),
            (900.0, rec.LINK_DOWN, 1),
        ]
        assert events[0].fields is dump["alerts"][0]  # a row, not a copy

    def test_span_events_keep_their_tail_position(self, dump):
        """Spans are recorded as they end, so start order is not tail order:
        ``seq`` gives the tail back."""
        spans = sorted((e for e in dump_events(dump) if e.kind == rec.SPAN),
                       key=lambda e: e.fields["seq"])
        assert [[e.fields["name"], e.node, e.t_ns, e.fields["end_ns"],
                 e.fields["parent_id"], e.fields["args"]] for e in spans] == dump["spans"]
