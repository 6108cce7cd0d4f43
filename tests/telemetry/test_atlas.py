"""The resource-attribution atlas: sketches, link rows, surfaces.

Covers the determinism contract end to end — attribution fully enabled
changes zero simulated nanoseconds (report digests and per-node clocks
are bit-identical with the atlas on or off) — plus the Space-Saving
sketch guarantees, the snapshot of a seeded run that saturates the
fabric, the CLI/dashboard/flight-recorder surfaces, and the link downs
the incident scorer consumes.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

import repro.telemetry as tel
from repro.bench.harness import build_rig
from repro.rack.machine import RackMachine
from repro.rack.params import GLOBAL_BASE, RackConfig
from repro.telemetry import TELEMETRY
from repro.telemetry.atlas import (
    ATLAS_SCHEMA,
    Atlas,
    SpaceSaving,
    aggregate_addrs,
    enable_atlas,
    load_atlas,
)
from repro.telemetry.__main__ import main as telemetry_main
from repro.telemetry.health.recorder import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    load_dump,
)
from repro.telemetry.incidents import blame_set, get_scenario, ground_truth, run_scenario
from repro.telemetry.registry import MetricsRegistry
from repro.workloads.traffic import TenantSpec, TrafficEngine
from tests import pins

pytestmark = pytest.mark.atlas


@pytest.fixture(autouse=True)
def _clean_switchboard():
    TELEMETRY.atlas = None
    yield
    TELEMETRY.atlas = None
    tel.reset()
    tel.disable()


# -- the Space-Saving sketch ---------------------------------------------------


class TestSpaceSaving:
    def test_exact_below_capacity(self):
        s = SpaceSaving(k=8)
        for key, w in [(5, 2.0), (3, 1.0), (5, 3.0)]:
            s.offer(key, w)
        assert s.top() == [(5, 5.0, 0.0), (3, 1.0, 0.0)]
        assert s.guaranteed_fraction() == 1.0

    def test_eviction_inherits_error_bound(self):
        s = SpaceSaving(k=2)
        s.offer(1, 10.0)
        s.offer(2, 1.0)
        s.offer(3, 5.0)  # evicts key 2 (the minimum), inherits its count
        rows = {key: (count, err) for key, count, err in s.top()}
        assert 2 not in rows
        assert rows[3] == (6.0, 1.0)  # floor 1.0 + weight 5.0, error 1.0
        # count - error lower-bounds the true weight
        assert rows[3][0] - rows[3][1] == 5.0

    def test_eviction_tie_breaks_on_key_not_dict_order(self):
        a, b = SpaceSaving(k=2), SpaceSaving(k=2)
        a.offer(7, 1.0); a.offer(9, 1.0); a.offer(1, 1.0)
        b.offer(9, 1.0); b.offer(7, 1.0); b.offer(1, 1.0)
        # tied minimum: smallest key (7) evicted in both, whatever the
        # insertion order was
        assert sorted(k for k, _, _ in a.top()) == sorted(k for k, _, _ in b.top()) == [1, 9]

    def test_batch_equals_sequential_without_eviction(self):
        keys = np.array([4, 1, 4, 9, 1, 1], dtype=np.int64)
        loop = SpaceSaving(k=8)
        for k in keys.tolist():
            loop.offer(int(k), 2.0)
        batch = SpaceSaving(k=8)
        uk, counts = np.unique(keys, return_counts=True)
        batch.offer_many(uk, counts.astype(np.float64) * 2.0)
        assert (loop.top(), loop.total) == (batch.top(), batch.total)

    def test_guaranteed_fraction_is_a_floor(self):
        rng = np.random.default_rng(11)
        true = {}
        s = SpaceSaving(k=16)
        for key in rng.zipf(1.5, size=2000) % 64:
            s.offer(int(key), 1.0)
            true[int(key)] = true.get(int(key), 0) + 1
        tracked_true = sum(true[k] for k, _, _ in s.top())
        assert s.guaranteed_fraction() * s.total <= tracked_true + 1e-9

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            SpaceSaving(k=0)

    @pytest.mark.parametrize("k", [1, 2, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_heap_eviction_equals_scanning_for_the_minimum(self, k, seed):
        """The heap is an index, not a policy: against a reference that scans
        all k counters for the ``(count, key)`` minimum, every observable
        stays identical over streams full of count ties, with ``offer``,
        ``offer_many`` and ``clear`` interleaved."""

        class Scan:  # Space-Saving as first written: evict by linear scan
            def __init__(self):
                self.counts, self.errors, self.total = {}, {}, 0.0

            def offer(self, key, w):
                self.total += w
                if key in self.counts:
                    self.counts[key] += w
                    return
                floor = 0.0
                if len(self.counts) >= k:
                    floor, victim = min((c, key_) for key_, c in self.counts.items())
                    del self.counts[victim], self.errors[victim]
                self.counts[key], self.errors[key] = floor + w, floor

        rng = np.random.default_rng(seed)
        sketch, ref = SpaceSaving(k), Scan()
        for step in range(400):
            roll = rng.random()
            if roll < 0.01:
                sketch.clear()
                ref = Scan()
            elif roll < 0.5:
                key, w = int(rng.integers(0, 3 * k + 2)), float(rng.integers(0, 3))
                sketch.offer(key, w)
                ref.offer(key, w)
            else:
                keys = np.unique(rng.integers(0, 3 * k + 2, size=int(rng.integers(1, 40))))
                weights = rng.integers(1, 3, size=len(keys)).astype(np.float64)
                sketch.offer_many(keys, weights, presorted=True)
                pairs = list(zip(keys.tolist(), weights.tolist()))
                tracked = set(ref.counts)  # a batch counts its hits, then offers the rest
                for key, w in sorted(pairs, key=lambda kw: kw[0] not in tracked):
                    ref.offer(key, w)
            assert (sketch.counts, sketch.errors, sketch.total) == (ref.counts, ref.errors, ref.total)
        assert sketch.top() == sorted(
            ((key, c, ref.errors[key]) for key, c in ref.counts.items()),
            key=lambda row: (-row[1], row[0]),
        )

    def test_clear_forgets_evictable_keys(self):
        """A heap left behind by ``clear`` would name victims the sketch no
        longer tracks."""
        s = SpaceSaving(k=2)
        s.offer(1, 1.0); s.offer(2, 1.0)
        s.clear()
        for key in (10, 11, 12):
            s.offer(key, 1.0)
        assert s.top() == [(12, 2.0, 1.0), (11, 1.0, 0.0)]

    def test_aggregate_addrs_scalar_and_ragged(self):
        addrs = np.array([0, 10, 4096, 4100], dtype=np.int64)
        keys, weights = aggregate_addrs(addrs, 12, 8)
        assert keys.tolist() == [0, 1]
        assert weights.tolist() == [16.0, 16.0]
        keys, weights = aggregate_addrs(addrs, 12, np.array([1.0, 2.0, 3.0, 4.0]))
        assert weights.tolist() == [3.0, 7.0]


# -- machine ingestion ---------------------------------------------------------


class TestAtlasIngestion:
    def _machine(self):
        return RackMachine(RackConfig(n_nodes=2))

    def test_single_op_paths_feed_the_sketch(self):
        m = self._machine()
        atlas = enable_atlas(m)
        gb = m.global_base
        m.store(0, gb, b"x" * 64)       # miss -> general path
        m.load(0, gb, 64)               # hit  -> fast path
        m.atomic_fetch_add(0, gb + 4096, 1)
        total = atlas.pages.total
        assert total == 64 + 64 + 8
        assert {row["page"] for row in atlas.hot_pages()} == {gb, gb + 4096}

    def test_local_addresses_never_sketched(self):
        m = self._machine()
        atlas = enable_atlas(m)
        base = m.local_base(0)
        m.store(0, base, b"y" * 64)
        m.load(0, base, 64)
        m.load_many(0, [base + i * 64 for i in range(8)], 64, bypass_cache=True)
        assert atlas.pages.total == 0.0

    def test_bulk_paths_feed_one_aggregated_batch(self):
        m = self._machine()
        atlas = enable_atlas(m)
        gb = m.global_base
        addrs = [gb + i * 64 for i in range(64)]
        m.load_many(0, addrs, 64, bypass_cache=True)
        m.store_many(0, addrs, [b"z" * 64] * 64, bypass_cache=True)
        m.store_many(0, addrs[:8], [b"w" * 64] * 8)          # cached store
        m.load_many(0, addrs[:8], 64)                        # cached hits
        m.atomic_fetch_add_many(0, [gb + 65536 + i * 8 for i in range(16)], 1)
        assert atlas.pages.total == 64 * 64 * 2 + 8 * 64 * 2 + 16 * 8

    def test_bulk_equals_singleop_sketch_totals(self):
        gb = GLOBAL_BASE
        addrs = [gb + (i % 16) * 4096 for i in range(128)]

        m1 = self._machine()
        a1 = enable_atlas(m1)
        m1.load_many(0, addrs, 32, bypass_cache=True)
        bulk = (a1.hot_pages(), a1.pages.total)

        m2 = self._machine()
        a2 = enable_atlas(m2)
        for a in addrs:
            m2.load(0, a, 32, bypass_cache=True)
        assert (a2.hot_pages(), a2.pages.total) == bulk

    def test_same_seed_snapshot_byte_identical(self):
        def run():
            rig = build_rig()
            atlas = enable_atlas(rig.kernel.machine)
            eng = TrafficEngine(
                rig.kernel,
                [TenantSpec(name="web", rate_rps=150_000.0, node=0)],
                seed=13, batch_window_ns=500_000.0,
            )
            eng.run(max_requests=4_000)
            return json.dumps(atlas.snapshot(), sort_keys=True)

        assert run() == run()

    def test_telemetry_reset_clears_the_atlas(self):
        m = self._machine()
        atlas = enable_atlas(m)
        m.load(0, m.global_base, 64, bypass_cache=True)
        atlas.note_queue_delay("t", 5.0)
        tel.reset()
        assert atlas.pages.total == 0.0
        assert atlas.queue_delay_ns == {}
        assert TELEMETRY.atlas is atlas  # reset clears, never detaches



# -- the zero-simulated-ns contract --------------------------------------------


class TestDigestEquality:
    def _engine(self, seed=3, **kw):
        rig = build_rig()
        tenants = [
            TenantSpec(name="web", rate_rps=200_000.0, n_clients=10_000, node=0),
            TenantSpec(name="batch", rate_rps=100_000.0, n_clients=5_000, node=1,
                       get_ratio=0.5),
        ]
        return rig, TrafficEngine(rig.kernel, tenants, seed=seed,
                                  batch_window_ns=500_000.0, **kw)

    def test_atlas_on_off_identical_report_and_clocks(self):
        rig_off, off = self._engine()
        r_off = off.run(max_requests=10_000)
        clocks_off = [n.clock.now_ns for n in rig_off.machine.nodes.values()]

        rig_on, on = self._engine()
        enable_atlas(rig_on.kernel.machine)
        r_on = on.run(max_requests=10_000)
        clocks_on = [n.clock.now_ns for n in rig_on.machine.nodes.values()]

        assert r_off.digest() == r_on.digest()
        assert clocks_off == clocks_on  # zero simulated ns from attribution

    def test_chaos_journal_digest_with_atlas_matches_pin(self, pin):
        """The ue-storm pinned digest (test_incidents) must hold with the
        atlas fully enabled — attribution is invisible to the journal."""
        TELEMETRY.atlas = Atlas()  # machine-less: hooks still feed it
        pin(run_scenario(get_scenario("ue-storm"), detection=True).report.digest)


# -- a run that saturates the fabric --------------------------------------------


def _saturate():
    """Two tenants on the same port; the hog outsends the meek 20:1 and
    drives the fabric past its 200 MB/s capacity."""
    TELEMETRY.atlas = None
    rig = build_rig()
    atlas = enable_atlas(rig.kernel.machine)
    # small, skewed working sets: the true hot pages fit in the top-64
    # sketch, which is the regime the coverage guarantee targets
    tenants = [
        TenantSpec(name="hog", rate_rps=400_000.0, node=0, value_size=4096,
                   n_keys=32),
        TenantSpec(name="meek", rate_rps=20_000.0, node=0, value_size=1024,
                   n_keys=16),
    ]
    rig.machine.fabric.vnis.capacity_bytes_per_s = 200e6
    engine = TrafficEngine(rig.kernel, tenants, seed=21,
                           batch_window_ns=500_000.0)
    engine.run(duration_ns=40e6)
    TELEMETRY.atlas = None
    return rig, engine, atlas


@pytest.fixture(scope="module")
def saturated_run():
    rig, engine, atlas = _saturate()
    return rig, engine, atlas.snapshot()


@pytest.fixture(scope="module")
def severed_export(tmp_path_factory):
    """``saturated_run``'s traffic, then node 1's port cut, exported as a
    run file: the link views have a ``downs`` stamp to render."""
    rig, _, atlas = _saturate()
    now_ns = rig.machine.max_time()
    rig.machine.fabric.set_link_state("node:1", "gmem", False, now_ns=now_ns)
    path = tmp_path_factory.mktemp("severed") / "run.json"
    TELEMETRY.atlas = atlas
    try:
        TELEMETRY.export_json(path)
    finally:
        TELEMETRY.atlas = None
    return rig, now_ns, path


class TestSaturatedRun:
    def test_page_sketch_covers_the_hot_traffic(self, saturated_run):
        _, _, snap = saturated_run
        assert snap["sketch"]["page_coverage"] >= 0.95

    def test_snapshot_is_json_round_trippable(self, saturated_run):
        _, _, snap = saturated_run
        assert json.loads(json.dumps(snap, sort_keys=True)) == snap
        assert snap["schema"] == ATLAS_SCHEMA


# -- surfaces: CLI, dashboard, recorder, scoring -------------------------------


class TestSurfaces:
    def test_cli_views_over_an_exported_snapshot(self, saturated_run, tmp_path, capsys):
        _, _, snap = saturated_run
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"schema": tel.RUN_SCHEMA, "meta": {}, "trace": None,
                                    "metrics": MetricsRegistry().snapshot(), "atlas": snap}))
        for command, expect in [
            (["top-links", str(path)], "gmem|node:0"),
            (["top-pages", str(path), "-n", "4"], "hot pages"),
        ]:
            assert telemetry_main(command) == 0
            assert expect in capsys.readouterr().out

    def test_cli_rejects_a_non_atlas_file(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        path.write_text(json.dumps(TELEMETRY.export_run()))  # no atlas attached
        assert telemetry_main(["top-links", str(path)]) == 2
        assert "no atlas section" in capsys.readouterr().err

    def test_load_atlas_accepts_run_exports(self, tmp_path):
        rig = build_rig()
        tel.enable()
        try:
            atlas = enable_atlas(rig.kernel.machine)
            rig.machine.load(0, rig.machine.global_base, 64, bypass_cache=True)
            run = TELEMETRY.export_run()
            path = tmp_path / "run.json"
            path.write_text(json.dumps(run, sort_keys=True))
            loaded = load_atlas(path)
            assert loaded == json.loads(json.dumps(atlas.snapshot(), sort_keys=True))
        finally:
            tel.reset()
            tel.disable()

    def test_dashboard_renders_atlas_panels(self, saturated_run):
        from repro.telemetry.dashboard import render_dashboard

        _, _, snap = saturated_run
        run = {"meta": {}, "metrics": MetricsRegistry().snapshot(), "trace": None, "atlas": snap}
        text = render_dashboard(run, flame=False)
        assert "fabric links" in text
        assert "hot pages" in text


GOLDEN_VIEWS = pathlib.Path(__file__).with_name("golden_atlas_views.txt")


class TestPinnedOutputs:
    """Byte pins over a saturated, partly severed run: the two atlas views,
    the dashboard's atlas panels and the recorder's link tail."""

    def test_cli_views_and_dashboard_panels_match_the_golden(
        self, severed_export, capsys
    ):
        _, _, path = severed_export
        parts = []
        for argv in (["top-links"], ["top-pages", "-n", "4"]):
            assert telemetry_main(argv[:1] + [str(path)] + argv[1:]) == 0
            parts.append(f"$ atlas {' '.join(argv)}\n{capsys.readouterr().out}")
        assert telemetry_main(["dashboard", str(path)]) == 0
        dashboard = capsys.readouterr().out
        parts.append("$ dashboard (atlas panels)\n"
                     + dashboard[dashboard.index("-- fabric links --"):])
        pins.regenerate(GOLDEN_VIEWS, "".join(parts).encode("utf-8"), str(GOLDEN_VIEWS))

    def test_recorder_link_tail_digest(self, severed_export, pin):
        """sha256 of ``severed_export``'s ``atlas_links`` dump tail (sorted-key JSON)."""
        rig, now_ns, _ = severed_export
        tail = FlightRecorder().snapshot("pin", now_ns, machine=rig.machine)["atlas_links"]
        pin(hashlib.sha256(json.dumps(tail, sort_keys=True).encode()).hexdigest())


class TestFlightRecorderV3:
    def test_snapshot_carries_atlas_tails(self, saturated_run):
        rig, _, _ = saturated_run
        rec = FlightRecorder()
        dump = rec.snapshot("test", rig.machine.max_time(), machine=rig.machine)
        assert dump["schema"] == FLIGHT_SCHEMA == "repro.telemetry.flightrec/5"
        links = {r["link"]: r for r in dump["atlas_links"]}
        port = links["gmem|node:0"]
        assert port == {"link": "gmem|node:0", "bytes": port["bytes"],
                        "requests": port["requests"], "downs": []}
        assert port["bytes"] > port["requests"] > 0

    def test_round_trip_re_snapshots_identically(self, saturated_run, tmp_path):
        rig, _, _ = saturated_run
        rec = FlightRecorder()
        dump = rec.snapshot("rt", 123.0, machine=rig.machine)
        path = tmp_path / "rt.json"
        path.write_text(json.dumps(rec.snapshot("rt", 123.0, machine=rig.machine), indent=2, sort_keys=True))
        assert load_dump(path) == json.loads(json.dumps(dump))


class TestLinkBlameScoring:
    def test_blame_set_resolves_flapped_links_to_nodes(self):
        """The atlas link tail alone localises a severed port — no
        alert, breaker, or span needed."""
        dump = dict(
            FlightRecorder().snapshot("unit", 0.0),
            fault_tail={
                "3": [{"kind": "link_down", "time_ns": 100.0,
                       "addr": None, "detail": "chaos"}],
            },
            atlas_links=[
                {"link": "gmem|node:3", "downs": [100.0]},
                {"link": "gmem|node:1", "downs": []},       # healthy port
                {"link": "gmem|node:2", "downs": [5.0]},    # pre-incident flap
            ],
        )
        t0, truth = ground_truth(dump)
        assert truth == {"node:3"}
        assert blame_set(dump, t0) == {"node:3"}

    def test_link_flap_scenario_localises_the_primary(self):
        """New link-flap localization assertion: in the live scenario the
        /3 dump's link tail stamps the flaps, and stripping every other
        blame source still pins node 0."""
        result = run_scenario(get_scenario("link-flap"), detection=True)
        dump = result.dump
        t0, _ = ground_truth(dump)
        port = {r["link"]: r for r in dump["atlas_links"]}["gmem|node:0"]
        assert len(port["downs"]) >= 2  # both chaos flaps stamped
        stripped = dict(dump, alerts=[], breakers=[], boosts=[], spans=[])
        assert "node:0" in blame_set(stripped, t0)
        assert result.score["localization"]["f1"] > 0
