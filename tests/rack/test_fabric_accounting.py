"""Per-link / per-VNI fabric accounting: decay, aggregates, fair share.

The attribution atlas rides entirely on these tables, so their edge
cases are pinned here, next to the fabric they instrument:

* stale-rate decay — a long-idle VNI (or link) must read ~0, not its
  last completed window's rate frozen forever;
* the snapshot aggregate row round-trips;
* weighted fair-share edges (single tenant, zero-rate tenant,
  registration-order VNI ids);
* :class:`LinkTable` window rolls, saturation banking, bottleneck and
  time-to-saturation;
* routed charging and cache invalidation on topology changes.
"""

import json

import pytest

from repro.rack.interconnect import (
    GMEM_VERTEX,
    Interconnect,
    InterconnectError,
    LinkTable,
    VniTable,
    link_endpoints,
    link_id,
)
from repro.rack import topology


MS = 1e6  # the default accounting window, in ns


class TestVniRateDecay:
    def test_rate_without_now_is_last_completed_window(self):
        t = VniTable(capacity_bytes_per_s=1e9)
        v = t.register("a")
        t.charge(v, 1000, 1, 0.0)
        t.charge(v, 1000, 1, MS)  # rolls the first window
        assert t.rate_bytes_per_s(v) == pytest.approx(1000 * 1e9 / MS)

    def test_long_idle_gap_decays_to_zero(self):
        """Regression: a tenant that bursts then goes silent must not be
        policed (or blamed) on its frozen last-window rate."""
        t = VniTable(capacity_bytes_per_s=1e6)
        v = t.register("bursty")
        # saturate one window: 2e6 B/s against a 1e6 B/s capacity
        t.charge(v, 1000, 1, 0.0)
        t.charge(v, 1000, 1, MS)
        assert t.saturated()  # stale view: still "saturated"
        # ... but one second of silence later the decayed view is ~0
        idle = MS + 1e9
        assert t.rate_bytes_per_s(v, now_ns=idle) == pytest.approx(
            1000 * 1e9 / (idle - MS)
        )
        assert t.rate_bytes_per_s(v, now_ns=idle) < 1e4
        assert not t.saturated(now_ns=idle)
        assert not t.over_share(v, now_ns=idle)
        assert t.utilisation(now_ns=idle) < 0.01

    def test_decay_is_monotone_in_silence(self):
        t = VniTable()
        v = t.register("a")
        t.charge(v, 4096, 1, 0.0)
        t.charge(v, 4096, 1, MS)
        rates = [t.rate_bytes_per_s(v, now_ns=MS + k * 10 * MS) for k in range(1, 6)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_now_inside_open_window_keeps_last_rate(self):
        """Mid-window reads must not flap: below one window of elapsed
        time the last completed rate stands."""
        t = VniTable()
        v = t.register("a")
        t.charge(v, 1000, 1, 0.0)
        t.charge(v, 1000, 1, MS)
        stale = t.rate_bytes_per_s(v)
        assert t.rate_bytes_per_s(v, now_ns=MS + 0.5 * MS) == stale


class TestVniSnapshotAggregate:
    def test_aggregate_row_totals(self):
        t = VniTable(capacity_bytes_per_s=1e9)
        a = t.register("a")
        b = t.register("b")
        t.charge(a, 1000, 2, 0.0)
        t.charge(b, 3000, 4, 0.0)
        t.drop(a, 5)
        snap = t.snapshot()
        agg = snap["aggregate"]
        assert agg["bytes"] == 4000
        assert agg["requests"] == 6
        assert agg["dropped"] == 5
        assert agg["bytes"] == sum(row["bytes"] for row in snap["vnis"])
        assert agg["requests"] == sum(row["requests"] for row in snap["vnis"])
        assert agg["dropped"] == sum(row["dropped"] for row in snap["vnis"])

    def test_snapshot_json_round_trip(self):
        t = VniTable(capacity_bytes_per_s=2e9)
        a = t.register("web", weight=3.0)
        t.register("batch")
        t.charge(a, 1 << 20, 64, 0.0)
        t.charge(a, 1 << 20, 64, MS)
        snap = t.snapshot(now_ns=2 * MS)
        again = json.loads(json.dumps(snap, sort_keys=True))
        assert again == snap
        assert again["aggregate"]["utilisation"] == snap["aggregate"]["utilisation"]


class TestFairShareEdges:
    def test_single_tenant_share_is_full_capacity(self):
        t = VniTable(capacity_bytes_per_s=1e9)
        v = t.register("only")
        assert t.fair_share_bytes_per_s(v) == pytest.approx(1e9)

    def test_zero_rate_tenant_never_over_share(self):
        t = VniTable(capacity_bytes_per_s=1e6)
        quiet = t.register("quiet")
        loud = t.register("loud")
        # loud saturates the fabric alone
        t.charge(loud, 10_000_000, 10, 0.0)
        t.charge(loud, 1, 1, MS)
        assert t.saturated()
        assert not t.over_share(quiet)
        assert t.over_share(loud)

    def test_registration_order_gives_dense_deterministic_ids(self):
        names = ["c", "a", "b"]
        t1 = VniTable()
        t2 = VniTable()
        ids1 = [t1.register(n) for n in names]
        ids2 = [t2.register(n) for n in names]
        assert ids1 == ids2 == [0, 1, 2]
        for vni, name in zip(ids1, names):
            assert t1.name_of(vni) == name
            assert t1._by_name[name] == vni

    def test_weighted_share_partitions_capacity(self):
        t = VniTable(capacity_bytes_per_s=4e9)
        heavy = t.register("heavy", weight=3.0)
        light = t.register("light", weight=1.0)
        assert t.fair_share_bytes_per_s(heavy) == pytest.approx(3e9)
        assert t.fair_share_bytes_per_s(light) == pytest.approx(1e9)


class TestLinkIds:
    def test_canonical_order_and_inverse(self):
        assert link_id("node:0", "gmem") == link_id("gmem", "node:0")
        link = link_id("switch:1", "node:3")
        u, v = link_endpoints(link)
        assert {u, v} == {"switch:1", "node:3"}
        assert link_id(u, v) == link


class TestLinkTable:
    def test_charge_accumulates_per_link_and_vni(self):
        t = LinkTable()
        t.charge("a|b", 0, 100, 1, 0.0)
        t.charge("a|b", 1, 300, 2, 0.0)
        s = t.get("a|b")
        assert s.bytes == 400 and s.requests == 3
        assert s.vni_bytes == {0: 100, 1: 300}
        assert t.links() == ["a|b"]

    def test_window_roll_publishes_rate(self):
        t = LinkTable()
        t.charge("a|b", 0, 5000, 1, 0.0)
        t.charge("a|b", 0, 1, 1, MS)
        assert t.rate_bytes_per_s("a|b") == pytest.approx(5000 * 1e9 / MS)

    def test_saturated_window_banks_blame_by_vni(self):
        t = LinkTable()
        cap = 1e6  # 1 MB/s -> 1000 bytes per 1 ms window saturates
        t.charge("a|b", 0, 900, 1, 0.0, capacity_bytes_per_s=cap)
        t.charge("a|b", 1, 100, 1, 0.0, capacity_bytes_per_s=cap)
        t.charge("a|b", 0, 1, 1, MS, capacity_bytes_per_s=cap)  # roll: saturated
        s = t.get("a|b")
        assert s.saturated_windows == 1
        assert s.saturated_bytes == 1000
        shares = t.saturated_share("a|b")
        assert shares[0] == pytest.approx(0.9)
        assert shares[1] == pytest.approx(0.1)

    def test_unsaturated_roll_banks_nothing(self):
        t = LinkTable()
        t.charge("a|b", 0, 10, 1, 0.0, capacity_bytes_per_s=1e9)
        t.charge("a|b", 0, 1, 1, MS, capacity_bytes_per_s=1e9)
        assert t.get("a|b").saturated_windows == 0
        assert t.saturated_share("a|b") == {}

    def test_bottleneck_is_max_saturated_bytes(self):
        t = LinkTable()
        cap = 1e6
        for link, load in (("a|b", 2000), ("a|c", 5000)):
            t.charge(link, 0, load, 1, 0.0, capacity_bytes_per_s=cap)
            t.charge(link, 0, 1, 1, MS, capacity_bytes_per_s=cap)
        assert t.bottleneck() == "a|c"

    def test_time_to_saturation_under_rising_slope(self):
        t = LinkTable()
        cap = 1e7
        # windows at 1k, then 2k bytes/ms: rising rate, finite t-to-sat
        t.charge("a|b", 0, 1000, 1, 0.0, capacity_bytes_per_s=cap)
        t.charge("a|b", 0, 2000, 1, MS, capacity_bytes_per_s=cap)
        t.charge("a|b", 0, 1, 1, 2 * MS, capacity_bytes_per_s=cap)
        tts = t.time_to_saturation_s("a|b")
        assert tts is not None and tts > 0
        # saturated link: zero headroom time
        t2 = LinkTable()
        t2.charge("x|y", 0, 2000, 1, 0.0, capacity_bytes_per_s=1e6)
        t2.charge("x|y", 0, 2500, 1, MS, capacity_bytes_per_s=1e6)
        t2.charge("x|y", 0, 1, 1, 2 * MS, capacity_bytes_per_s=1e6)
        assert t2.time_to_saturation_s("x|y") == 0.0

    def test_link_rate_decays_when_idle(self):
        t = LinkTable()
        t.charge("a|b", 0, 5000, 1, 0.0)
        t.charge("a|b", 0, 5000, 1, MS)
        stale = t.rate_bytes_per_s("a|b")
        decayed = t.rate_bytes_per_s("a|b", now_ns=MS + 1e9)
        assert decayed < stale / 100

    def test_note_state_records_down_timestamps(self):
        t = LinkTable()
        t.note_state("a|b", up=False, now_ns=42.0)
        t.note_state("a|b", up=True, now_ns=50.0)
        t.note_state("a|b", up=False, now_ns=60.0)
        assert t.get("a|b").downs == [42.0, 60.0]

    def test_snapshot_round_trips_through_json(self):
        t = LinkTable()
        t.charge("a|b", 0, 2000, 2, 0.0, capacity_bytes_per_s=1e6)
        t.charge("a|b", 1, 500, 1, MS, capacity_bytes_per_s=1e6)
        t.note_state("a|b", up=False, now_ns=MS)
        snap = t.snapshot(now_ns=2 * MS)
        assert json.loads(json.dumps(snap, sort_keys=True)) == snap
        row = snap["links"][0]
        assert row["link"] == "a|b"
        assert row["capacity_bytes_per_s"] == 1e6
        assert row["vnis"][0]["vni"] == 0


class TestRoutedCharging:
    def _fabric(self, **kw):
        return topology.build("dual_direct", 4, **kw)

    def test_charge_lands_on_every_path_link(self):
        fab = self._fabric()
        vni = fab.vnis.register("t")
        fab.charge(vni, 0, 1234, 1, 0.0)
        route = fab.path_links(0)
        assert route  # dual_direct: node:0 -> gmem directly
        for link in route:
            assert fab.links.get(link).bytes == 1234
        # other nodes' ports untouched
        assert fab.links.get(link_id("node:1", "gmem")) is None

    def test_charge_to_severed_node_counts_aggregate_only(self):
        fab = self._fabric()
        vni = fab.vnis.register("t")
        fab.set_link_state("node:0", "gmem", False, now_ns=5.0)
        fab.charge(vni, 0, 999, 1, 10.0)
        assert fab.vnis.snapshot()["aggregate"]["bytes"] == 999
        s = fab.links.get(link_id("node:0", "gmem"))
        # note_state recorded the flap, but no bytes ever landed on the
        # severed port (aggregate accounting still saw them)
        assert s is not None and s.downs == [5.0]
        assert s.bytes == 0

    def test_path_cache_invalidated_on_link_change(self):
        fab = topology.build("single_switch", 2)
        first = fab.path_links(0)
        assert len(first) == 2  # node -> switch -> gmem
        fab.set_link_state("node:0", "switch:0", False)
        with pytest.raises(InterconnectError):
            fab.path_links(0)
        fab.set_link_state("node:0", "switch:0", True)
        assert fab.path_links(0) == first

    def test_topology_capacity_kwarg_sets_edge_capacity(self):
        fab = topology.build("dual_direct", 2, link_capacity_bytes_per_s=5e9)
        assert fab.link_capacity("node:0", "gmem") == 5e9
        vni = fab.vnis.register("t")
        fab.charge(vni, 0, 100, 1, 0.0)
        link = fab.path_links(0)[0]
        assert fab.links.get(link).capacity_bytes_per_s == 5e9

    def test_set_link_capacity_after_build(self):
        fab = self._fabric()
        fab.set_link_capacity("node:1", "gmem", 7e9)
        assert fab.link_capacity("node:1", "gmem") == 7e9
        # unset links fall back to the rack-wide VNI capacity
        fab.vnis.capacity_bytes_per_s = 3e9
        assert fab.link_capacity("node:0", "gmem") == 3e9

    def _charged_route(self, fab, vni):
        """Charge node 0 once at t=0 (which caches its route); its links."""
        fab.charge(vni, 0, 1000, 1, 0.0)
        return fab.path_links(0)

    def test_cached_route_charges_against_the_capacity_in_force(self):
        """The charge plan caches each link's edge attributes, not a
        capacity: a ``set_link_capacity`` after the route was cached is
        what the next window is banked against."""
        fab = topology.build("single_switch", 2)
        vni = fab.vnis.register("t")
        port, trunk = (fab.links.get(link) for link in self._charged_route(fab, vni))
        assert port.capacity_bytes_per_s == trunk.capacity_bytes_per_s == float("inf")
        # 1000 B in the first 1 ms window is 1e6 B/s: exactly the port's new capacity
        fab.set_link_capacity("node:0", "switch:0", 1e6)
        fab.charge(vni, 0, 1000, 1, MS)
        assert (port.saturated_windows, trunk.saturated_windows) == (1, 0)
        assert port.saturated_bytes == 1000
        # raised again: the same load no longer saturates it
        fab.set_link_capacity("node:0", "switch:0", 1e9)
        fab.charge(vni, 0, 1, 1, 2 * MS)
        assert port.saturated_windows == 1 and port.capacity_bytes_per_s == 1e9
        # and the fabric-wide default stays live for links without their own
        fab.vnis.capacity_bytes_per_s = 1.0
        fab.charge(vni, 0, 1, 1, 3 * MS)
        assert (port.saturated_windows, trunk.saturated_windows) == (1, 1)

    def test_link_flap_rebuilds_the_charge_plan(self):
        fab = topology.build("single_switch", 2, link_capacity_bytes_per_s=2e9)
        fab.link("node:0", GMEM_VERTEX, capacity_bytes_per_s=5e9)  # a one-hop shortcut
        vni = fab.vnis.register("t")
        direct = link_id("node:0", GMEM_VERTEX)
        assert self._charged_route(fab, vni) == (direct,)
        fab.set_link_state("node:0", GMEM_VERTEX, False, now_ns=1.0)
        fab.charge(vni, 0, 10, 1, 2.0)
        detour = fab.path_links(0)
        assert detour == (link_id("node:0", "switch:0"), link_id("switch:0", GMEM_VERTEX))
        assert fab.links.get(direct).bytes == 1000
        for link in detour:
            assert fab.links.get(link).bytes == 10
            assert fab.links.get(link).capacity_bytes_per_s == 2e9
        fab.set_link_state("node:0", GMEM_VERTEX, True, now_ns=3.0)
        fab.charge(vni, 0, 5, 1, 4.0)
        assert fab.links.get(direct).bytes == 1005
        assert fab.links.get(direct).capacity_bytes_per_s == 5e9
        assert [fab.links.get(link).bytes for link in detour] == [10, 10]
