"""Per-link / per-VNI fabric accounting: decay, aggregates, fair share.

The attribution atlas rides entirely on these tables, so their edge
cases are pinned here, next to the fabric they instrument:

* stale-rate decay — a long-idle VNI (or link) must read ~0, not its
  last completed window's rate frozen forever;
* the aggregate meter conserves the per-VNI ones;
* weighted fair-share edges (single tenant, zero-rate tenant,
  registration-order VNI ids);
* :class:`LinkTable` window rolls, per-VNI bytes and down stamps, read
  through :meth:`Interconnect.link_rows`;
* routed charging and cache invalidation on topology changes.
"""

import json

import pytest

from repro.rack.interconnect import (
    GMEM_VERTEX,
    Interconnect,
    InterconnectError,
    LinkTable,
    VniError,
    VniTable,
    link_id,
)
from repro.rack import topology


MS = 1e6  # the accounting window, in ns


def _rows(table: LinkTable, now_ns=None) -> dict:
    """``table``'s link rows by id, as the fabric holding it reports them."""
    fab = Interconnect()
    fab.links = table
    return {row["link"]: row for row in fab.link_rows(now_ns)}


def _route_links(fab: Interconnect, node_id: int) -> tuple:
    """The link ids along ``node_id``'s live route to global memory."""
    return fab._route(node_id)[1]


class TestVniRateDecay:
    def test_rate_without_now_is_last_completed_window(self):
        t = VniTable(capacity_bytes_per_s=1e9)
        v = t.register("a")
        t.charge(v, 1000, 1, 0.0)
        t.charge(v, 1000, 1, MS)  # rolls the first window
        assert t.stats[v].rate(None) == pytest.approx(1000 * 1e9 / MS)

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
        assert t.stats[v].rate(idle) == pytest.approx(
            1000 * 1e9 / (idle - MS)
        )
        assert t.stats[v].rate(idle) < 1e4
        assert not t.saturated(now_ns=idle)
        assert not t.over_share(v, now_ns=idle)
        assert t.utilisation(now_ns=idle) < 0.01

    def test_decay_is_monotone_in_silence(self):
        t = VniTable()
        v = t.register("a")
        t.charge(v, 4096, 1, 0.0)
        t.charge(v, 4096, 1, MS)
        rates = [t.stats[v].rate(MS + k * 10 * MS) for k in range(1, 6)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_now_inside_open_window_keeps_last_rate(self):
        """Mid-window reads must not flap: below one window of elapsed
        time the last completed rate stands."""
        t = VniTable()
        v = t.register("a")
        t.charge(v, 1000, 1, 0.0)
        t.charge(v, 1000, 1, MS)
        stale = t.stats[v].rate(None)
        assert t.stats[v].rate(MS + 0.5 * MS) == stale


class TestVniSnapshotAggregate:
    def test_aggregate_row_totals(self):
        """Conservation: the aggregate meter moved exactly what the VNIs did."""
        t = VniTable(capacity_bytes_per_s=1e9)
        a = t.register("a")
        b = t.register("b")
        t.charge(a, 1000, 2, 0.0)
        t.charge(b, 3000, 4, 0.0)
        t.charge(a, 500, 1, 2 * MS)
        t.drop(a, 5)
        assert t._agg.bytes == sum(s.bytes for s in t.stats) == 4500
        assert t._agg.requests == sum(s.requests for s in t.stats) == 7
        assert [s.dropped for s in t.stats] == [5, 0]

    def test_snapshot_json_round_trip(self):
        fab = topology.build("dual_direct", 2)
        a = fab.vnis.register("web", weight=3.0)
        fab.vnis.register("batch")
        fab.charge(a, 0, 1 << 20, 64, 0.0)
        fab.charge(a, 0, 1 << 20, 64, MS)
        rows = fab.link_rows(now_ns=2 * MS)
        assert json.loads(json.dumps(rows, sort_keys=True)) == rows
        (row,) = rows
        assert row["rate_bytes_per_s"] == round((1 << 20) * 1e9 / MS, 3)
        assert [(t["tenant"], t["bytes"]) for t in row["tenants"]] == [("web", 2 << 20)]


class TestFairShareEdges:
    def test_single_tenant_share_is_full_capacity(self):
        for rate, over in ((1.5e9, True), (0.5e9, False)):
            t = VniTable(capacity_bytes_per_s=1e9)
            v = t.register("only")
            t.charge(v, int(rate * MS / 1e9), 1, 0.0)
            t.charge(v, 0, 0, MS)  # closes the window: the rate is ``rate``
            assert t.over_share(v) is over

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

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), 0.0, -1.0])
    def test_a_weight_that_is_not_finite_and_positive_is_refused(self, weight):
        """A NaN weight made ``rate * sum(weights)`` NaN for every VNI, so a
        saturating neighbour read ``over_share`` False: refused at register."""
        t = VniTable(capacity_bytes_per_s=1e6)
        t.register("loud")
        with pytest.raises(VniError, match="finite and positive"):
            t.register("odd", weight=weight)
        assert t._weights == [1.0]

    def test_registration_order_gives_dense_deterministic_ids(self):
        names = ["c", "a", "b"]
        t1 = VniTable()
        t2 = VniTable()
        ids1 = [t1.register(n) for n in names]
        ids2 = [t2.register(n) for n in names]
        assert ids1 == ids2 == [0, 1, 2]
        for vni, name in zip(ids1, names):
            assert t1.label_of(vni) == name
            assert t1._by_name[name] == vni

    def test_weighted_share_partitions_capacity(self):
        t = VniTable(capacity_bytes_per_s=4e9)
        heavy = t.register("heavy", weight=3.0)
        light = t.register("light", weight=1.0)
        # both run at 2e9 B/s: above light's 1e9 share, below heavy's 3e9
        for vni in (heavy, light):
            t.charge(vni, int(2e9 * MS / 1e9), 1, 0.0)
            t.charge(vni, 0, 0, MS)
        assert not t.over_share(heavy)
        assert t.over_share(light)


class TestLinkIds:
    def test_canonical_order_and_inverse(self):
        assert link_id("node:0", "gmem") == link_id("gmem", "node:0")
        link = link_id("switch:1", "node:3")
        u, v = link.split("|")
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
        assert _rows(t)["a|b"]["rate_bytes_per_s"] == pytest.approx(5000 * 1e9 / MS)

    def test_link_rate_decays_when_idle(self):
        t = LinkTable()
        t.charge("a|b", 0, 5000, 1, 0.0)
        t.charge("a|b", 0, 5000, 1, MS)
        stale = _rows(t)["a|b"]["rate_bytes_per_s"]
        decayed = _rows(t, now_ns=MS + 1e9)["a|b"]["rate_bytes_per_s"]
        assert decayed < stale / 100

    def test_note_state_records_down_timestamps(self):
        t = LinkTable()
        t.note_state("a|b", up=False, now_ns=42.0)
        t.note_state("a|b", up=True, now_ns=50.0)
        t.note_state("a|b", up=False, now_ns=60.0)
        assert t.get("a|b").downs == [42.0, 60.0]

    def test_snapshot_round_trips_through_json(self):
        t = LinkTable()
        t.charge("a|b", 0, 2000, 2, 0.0)
        t.charge("a|b", 1, 500, 1, MS)
        t.note_state("a|b", up=False, now_ns=MS)
        rows = list(_rows(t, now_ns=2 * MS).values())
        assert json.loads(json.dumps(rows, sort_keys=True)) == rows
        row = rows[0]
        assert row["link"] == "a|b"
        assert (row["bytes"], row["requests"]) == (2500, 3)
        assert row["downs"] == [MS]
        assert [x["vni"] for x in row["tenants"]] == [0, 1]


class TestRoutedCharging:
    def _fabric(self, **kw):
        return topology.build("dual_direct", 4, **kw)

    def test_charge_lands_on_every_path_link(self):
        fab = self._fabric()
        vni = fab.vnis.register("t")
        fab.charge(vni, 0, 1234, 1, 0.0)
        route = _route_links(fab, 0)
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
        assert fab.vnis._agg.bytes == fab.vnis.stats[vni].bytes == 999
        s = fab.links.get(link_id("node:0", "gmem"))
        # note_state recorded the flap, but no bytes ever landed on the
        # severed port (aggregate accounting still saw them)
        assert s is not None and s.downs == [5.0]
        assert s.bytes == 0

    def test_path_cache_invalidated_on_link_change(self):
        fab = topology.build("single_switch", 2)
        first = _route_links(fab, 0)
        assert len(first) == 2  # node -> switch -> gmem
        fab.set_link_state("node:0", "switch:0", False)
        with pytest.raises(InterconnectError):
            _route_links(fab, 0)
        fab.set_link_state("node:0", "switch:0", True)
        assert _route_links(fab, 0) == first

    def _charged_route(self, fab, vni):
        """Charge node 0 once at t=0 (which caches its route); its links."""
        fab.charge(vni, 0, 1000, 1, 0.0)
        return _route_links(fab, 0)

    def test_link_flap_rebuilds_the_charge_plan(self):
        fab = topology.build("single_switch", 2)
        fab.link("node:0", GMEM_VERTEX)  # a one-hop shortcut
        vni = fab.vnis.register("t")
        direct = link_id("node:0", GMEM_VERTEX)
        assert self._charged_route(fab, vni) == (direct,)
        fab.set_link_state("node:0", GMEM_VERTEX, False, now_ns=1.0)
        fab.charge(vni, 0, 10, 1, 2.0)
        detour = _route_links(fab, 0)
        assert detour == (link_id("node:0", "switch:0"), link_id("switch:0", GMEM_VERTEX))
        assert fab.links.get(direct).bytes == 1000
        for link in detour:
            assert fab.links.get(link).bytes == 10
        fab.set_link_state("node:0", GMEM_VERTEX, True, now_ns=3.0)
        fab.charge(vni, 0, 5, 1, 4.0)
        assert fab.links.get(direct).bytes == 1005
        assert [fab.links.get(link).bytes for link in detour] == [10, 10]
