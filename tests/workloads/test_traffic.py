"""The open-loop traffic engine: determinism, admission, tenancy."""

import re

import numpy as np
import pytest

import repro.telemetry as tel
from repro.bench.harness import build_rig
from repro.telemetry.dashboard import render_dashboard
from repro.workloads.traffic import (
    AdmissionError,
    TenantSpec,
    TrafficEngine,
)

pytestmark = pytest.mark.traffic


def _two_tenant_engine(seed=7, **kw):
    rig = build_rig()
    tenants = [
        TenantSpec(name="web", rate_rps=200_000.0, n_clients=10_000, node=0),
        TenantSpec(name="batch", rate_rps=100_000.0, n_clients=5_000, node=1,
                   get_ratio=0.5),
    ]
    return rig, TrafficEngine(rig.kernel, tenants, seed=seed,
                              batch_window_ns=500_000.0, **kw)


class TestDeterminism:
    def test_same_seed_identical_report(self):
        _, a = _two_tenant_engine(seed=7)
        _, b = _two_tenant_engine(seed=7)
        ra = a.run(max_requests=20_000)
        rb = b.run(max_requests=20_000)
        assert ra.digest() == rb.digest()
        assert ra.duration_ns == rb.duration_ns
        for name in ra.tenants:
            assert ra.tenants[name] == rb.tenants[name]

    def test_different_seed_different_report(self):
        _, a = _two_tenant_engine(seed=7)
        _, b = _two_tenant_engine(seed=8)
        assert a.run(max_requests=5_000).digest() != b.run(max_requests=5_000).digest()

    def test_telemetry_never_touches_simulated_time(self):
        """Same digest (latencies, sim-ns totals) with telemetry on/off."""
        _, off = _two_tenant_engine(seed=3)
        r_off = off.run(max_requests=10_000)
        tel.enable()
        tel.reset()
        try:
            _, on = _two_tenant_engine(seed=3)
            r_on = on.run(max_requests=10_000)
        finally:
            tel.reset()
            tel.disable()
        assert r_off.digest() == r_on.digest()

    def test_run_is_resumable(self):
        """Two short runs equal one long run (the loop stays armed)."""
        _, a = _two_tenant_engine(seed=5)
        _, b = _two_tenant_engine(seed=5)
        a.run(duration_ns=20e6)
        ra = a.run(duration_ns=20e6)
        rb = b.run(duration_ns=40e6)
        assert sum(t["offered"] for t in ra.tenants.values()) == sum(t["offered"] for t in rb.tenants.values())
        for name in ra.tenants:
            assert ra.tenants[name]["admitted"] == rb.tenants[name]["admitted"]
            assert ra.tenants[name]["latency_sum_ns"] == pytest.approx(
                rb.tenants[name]["latency_sum_ns"]
            )


class TestOpenLoop:
    def test_offered_load_tracks_rate(self):
        rig = build_rig()
        eng = TrafficEngine(
            rig.kernel,
            [TenantSpec(name="t", rate_rps=100_000.0, node=0)],
            seed=1, batch_window_ns=500_000.0,
        )
        rep = eng.run(duration_ns=0.5e9)  # half a simulated second
        assert rep.tenants["t"]["offered"] == pytest.approx(50_000, rel=0.05)

    def test_diurnal_tenant_runs(self):
        rig = build_rig()
        eng = TrafficEngine(
            rig.kernel,
            [TenantSpec(name="wave", rate_rps=200_000.0, node=0,
                        arrival="diurnal", amplitude=0.8, period_s=0.05)],
            seed=2, batch_window_ns=500_000.0,
        )
        rep = eng.run(max_requests=10_000)
        assert rep.tenants["wave"]["admitted"] > 0

    def test_events_not_ticks(self):
        """A million-client tenant costs O(batches), not O(clients)."""
        rig = build_rig()
        eng = TrafficEngine(
            rig.kernel,
            [TenantSpec(name="huge", rate_rps=500_000.0, n_clients=1_000_000, node=0)],
            seed=4, batch_window_ns=1e6,
        )
        rep = eng.run(max_requests=20_000)
        assert rep.tenants["huge"]["offered"] >= 20_000
        # ~1 wake per batch window, nowhere near one event per client
        assert rep.events_dispatched < 200


class TestAdmission:
    def test_backlog_bound_sheds_and_bounds_p99(self):
        rig = build_rig()
        bound = 50_000.0
        eng = TrafficEngine(
            rig.kernel,
            [TenantSpec(name="hot", rate_rps=20_000_000.0, node=0,
                        max_backlog_ns=bound)],
            seed=3, batch_window_ns=200_000.0,
        )
        rep = eng.run(max_requests=30_000)
        t = rep.tenants["hot"]
        assert t["dropped_backlog"] > 0
        assert t["admitted"] > 0
        # survivor latency = bounded wait + one service time
        assert t["p99_ns"] <= bound + 10_000.0
        # and the drops are visible on the fabric's VNI accounting
        assert rig.machine.fabric.vnis.stats[t["vni"]].dropped == t["dropped"]

    def test_link_guard_polices_only_over_share_tenants(self):
        rig = build_rig()
        # hog offers ~64 MB/s, meek ~3.2 MB/s; capacity 40 MB/s with
        # equal weights -> fair share 20 MB/s each: the fabric
        # saturates, hog runs over share, meek stays under
        rig.machine.fabric.vnis.capacity_bytes_per_s = 40e6
        eng = TrafficEngine(
            rig.kernel,
            [
                TenantSpec(name="hog", rate_rps=1_000_000.0, node=0,
                           max_backlog_ns=1e9),
                TenantSpec(name="meek", rate_rps=50_000.0, node=1,
                           max_backlog_ns=1e9),
            ],
            seed=6,
            batch_window_ns=500_000.0,
        )
        rep = eng.run(duration_ns=50e6)
        assert rep.tenants["hog"]["dropped_link"] > 0
        assert rep.tenants["meek"]["dropped_link"] == 0
        assert rep.tenants["meek"]["admitted"] > 0

    def test_memory_admission(self):
        rig = build_rig()
        with pytest.raises(AdmissionError):
            TrafficEngine(
                rig.kernel,
                # namespace larger than the whole 64 MiB global arena
                [TenantSpec(name="glutton", rate_rps=1_000.0, node=0,
                            n_keys=1 << 20, value_size=256)],
                seed=1,
            )


    @pytest.mark.parametrize("field, value", [
        ("get_ratio", 1.5),                 # a mix no draw can produce
        ("get_ratio", -0.1),
        ("get_ratio", float("nan")),
        ("max_backlog_ns", -1.0),           # used to shed 100% of traffic, silently
        ("max_backlog_ns", float("nan")),
        ("rate_rps", float("nan")),         # used to reach the heap: "event time is NaN"
        ("rate_rps", float("inf")),
        ("rate_rps", 0.0),
        ("rate_rps", -5.0),
        ("weight", float("nan")),           # used to switch the link guard off: over_share NaN
        ("weight", float("inf")),
        ("weight", 0.0),                    # used to be the VNI table's error, at engine build
        ("n_keys", 0),                      # used to be the arena's "region size must be positive"
        ("n_keys", -4),
        ("n_keys", 1.5),                    # used to be a bare TypeError inside prepare
        ("value_size", 0),
        ("value_size", -64),                # with n_keys=-4 the product was positive: accepted
        ("value_size", 64.0),
        ("arrival", "bursty"),              # used to be make_process's error, at engine build
        ("amplitude", 1.0),
        ("amplitude", -0.1),
        ("amplitude", float("nan")),
        ("period_s", float("nan")),         # a diurnal run never returned: every draw thinned away
        ("period_s", float("inf")),
        ("period_s", 0.0),
        ("phase", float("nan")),            # never returned, as period_s=nan
        ("phase", float("inf")),
    ])
    def test_hostile_spec_is_refused_naming_tenant_and_field(self, field, value):
        with pytest.raises(ValueError, match=rf"tenant 'evil': {field} "):
            TenantSpec(**{"name": "evil", "rate_rps": 1_000.0, field: value})

    @pytest.mark.parametrize("bound, value, other", [
        ("duration_ns", float("nan"), None),    # never returned: an open loop never drains
        ("duration_ns", float("inf"), 1_000),   # returned duration_ns=inf, the clock at inf
        ("duration_ns", -1.0, None),            # an empty report
        ("duration_ns", "1e6", None),
        ("max_requests", -1, None),             # an empty report
        ("max_requests", 1.5, None),
        ("max_requests", True, None),
    ])
    def test_hostile_run_bound_is_refused_naming_the_argument(self, bound, value, other):
        rig, eng = _two_tenant_engine()
        kwargs = {bound: value, ("max_requests" if bound == "duration_ns" else "duration_ns"): other}
        with pytest.raises(ValueError, match=rf"run: {bound} must be .*, got {re.escape(repr(value))}"):
            eng.run(**kwargs)
        assert rig.kernel.events.now_ns == 0.0 and eng.total_offered == 0

    @pytest.mark.parametrize("window", [
        -1.0,            # run() never returned: every wake re-armed at its own instant
        float("nan"),    # EventCoreError out of _arm
        float("inf"),    # refilled arrivals forever
        "2e5",
    ])
    def test_hostile_batch_window_is_refused_naming_it(self, window):
        rig = build_rig()
        with pytest.raises(ValueError, match=rf"TrafficEngine.batch_window_ns must be .*, "
                                             rf"got {re.escape(repr(window))}"):
            TrafficEngine(rig.kernel, [TenantSpec(name="web", rate_rps=1_000.0)],
                          batch_window_ns=window)
        assert not rig.machine.fabric.vnis._names  # before any tenant is registered

    def test_zero_batch_window_is_legal_and_serves(self):
        rig = build_rig()
        eng = TrafficEngine(rig.kernel, [TenantSpec(name="web", rate_rps=100_000.0)],
                            seed=3, batch_window_ns=0)
        t = eng.run(max_requests=500).tenants["web"]
        assert t["offered"] >= 500 and t["admitted"] > 0

    def test_infinite_backlog_bound_is_legal_and_never_sheds(self):
        rig = build_rig()
        eng = TrafficEngine(
            rig.kernel,
            [TenantSpec(name="hot", rate_rps=20_000_000.0, node=0,
                        max_backlog_ns=float("inf"))],
            seed=3, batch_window_ns=200_000.0,
        )
        t = eng.run(max_requests=10_000).tenants["hot"]
        assert t["dropped"] == 0 and t["admitted"] == t["offered"]


class TestTenancy:
    def test_per_tenant_metrics_and_dashboard(self):
        tel.enable()
        tel.reset()
        try:
            _, eng = _two_tenant_engine(seed=9)
            eng.run(max_requests=10_000)
            reg = tel.TELEMETRY.registry
            for name, node in (("web", 0), ("batch", 1)):
                sub = tel.tenant_subsystem(name)
                assert reg.counters.get((node, sub, tel.ADMITTED_SERIES), 0.0) > 0
                hist = reg.histograms.get((node, sub, "latency_ns"))
                assert hist is not None and hist.count > 0
            # the dashboard shows each tenant's series in its subsystem panel
            panel = render_dashboard(tel.TELEMETRY.export_run())
            assert "-- traffic/web --" in panel and "-- traffic/batch --" in panel
        finally:
            tel.reset()
            tel.disable()

    def test_vni_registration_is_dense_and_ordered(self):
        rig, eng = _two_tenant_engine()
        assert eng.vnis._by_name["web"] == 0
        assert eng.vnis._by_name["batch"] == 1
        assert len(rig.machine.fabric.vnis._names) == 2

    def test_duplicate_tenant_name_rejected(self):
        rig = build_rig()
        from repro.rack.interconnect import VniError

        with pytest.raises(VniError):
            TrafficEngine(
                rig.kernel,
                [TenantSpec(name="dup", rate_rps=1_000.0),
                 TenantSpec(name="dup", rate_rps=2_000.0)],
            )


class TestBackends:
    def test_dataplane_batch_with_repeated_keys_issues_no_single_ops(self, monkeypatch):
        """A hot-key batch (every key repeated many times) stays on the
        vector path — zero single ``load``/``store`` calls, counted — and
        leaves the slab and the node clock exactly where a loop of single
        bypass ops leaves a twin machine."""
        from repro.rack.machine import RackMachine

        def prepared():
            rig = build_rig()
            eng = TrafficEngine(
                rig.kernel,
                [TenantSpec(name="hot", rate_rps=1e5, node=0, n_keys=8, value_size=256)],
                seed=5,
            )
            st = eng.tenants["hot"]
            slab, _values = st.backend_state
            # blank the namespace so every SET visibly changes device bytes
            rig.machine.fill(0, slab, 8 * 256, 0, bypass_cache=True)
            return rig, eng.backend, st

        rng = np.random.default_rng(17)
        key_idx = rng.integers(0, 6, size=300)  # keys 6, 7 never written
        is_get = rng.random(300) < 0.3

        twin, _, twin_st = prepared()
        slab, values = twin_st.backend_state
        for k in key_idx[is_get]:
            twin.machine.load(0, slab + int(k) * 256, 256, bypass_cache=True)
        for k in key_idx[~is_get]:
            twin.machine.store(0, slab + int(k) * 256, values[k].tobytes(), bypass_cache=True)

        rig, backend, st = prepared()
        singles = []
        for name in ("load", "store"):
            monkeypatch.setattr(
                RackMachine, name, lambda *a, _n=name, **kw: singles.append(_n)
            )
        backend.run_batch(rig.machine.context(0), st, key_idx, is_get)
        assert singles == []
        assert bytes(rig.machine.global_mem._buf) == bytes(twin.machine.global_mem._buf)
        assert rig.machine.now(0) == twin.machine.now(0)
        written = rig.machine.global_mem.read(slab - rig.machine.global_base, 8 * 256)
        assert written[: 6 * 256] == values[:6].tobytes() and not any(written[6 * 256 :])
