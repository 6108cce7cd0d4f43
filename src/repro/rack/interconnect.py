"""Memory-interconnect fabric model (CXL / HCCS style).

The fabric is a graph of node ports, switches, and the global-memory
device.  The only thing the machine needs from it is the *path cost* from
a node to global memory — how many hops and switches the access traverses
— plus link health, so that a downed link degrades or severs a node's
access.  Paths are recomputed lazily when topology changes.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple
from dataclasses import dataclass

from ..telemetry import RACK_WIDE, TELEMETRY as _TEL


class InterconnectError(Exception):
    """No usable path between a node and global memory."""


class VniError(Exception):
    """Unknown or duplicate VNI registration."""


#: Vertex naming convention in the fabric graph.
def node_vertex(node_id: int) -> str:
    return f"node:{node_id}"


def switch_vertex(switch_id: int) -> str:
    return f"switch:{switch_id}"


GMEM_VERTEX = "gmem"

#: Span of one accounting window (simulated ns): every VNI and link meter
#: publishes its byte rate once a window's worth of time has elapsed.
WINDOW_NS = 1e6


def link_id(u: str, v: str) -> str:
    """Canonical name for the (undirected) link between two vertices."""
    return f"{u}|{v}" if u <= v else f"{v}|{u}"


@dataclass(frozen=True)
class PathCost:
    """Hops and switches between a node and global memory."""

    hops: int
    switches: int


class _Meter:
    """Traffic meter in simulated time: lifetime bytes and requests, and
    a windowed byte rate.

    Bytes accumulate in an open window; the first :meth:`add` at or past
    :data:`WINDOW_NS` after the window opened closes it — the closed
    window's bytes over its *actual* span become ``rate_bytes_per_s`` —
    and opens the next at ``now_ns``.  Each VNI, the fabric aggregate
    and every link is one of these.
    """

    def __init__(self, window_start_ns: float = 0.0) -> None:
        self.bytes = 0
        self.requests = 0
        self.window_start_ns = window_start_ns
        self.window_bytes = 0
        #: rate of the last *completed* window
        self.rate_bytes_per_s = 0.0

    def add(self, n_bytes: int, requests: int, now_ns: float) -> Optional[int]:
        """Account traffic at ``now_ns``.  When that closes a window,
        returns the closed window's bytes (else ``None``), so an owner
        can bank per-window state before the next window fills."""
        closed = None
        elapsed = now_ns - self.window_start_ns
        if elapsed >= WINDOW_NS and elapsed > 0:
            closed = self.window_bytes
            self.rate_bytes_per_s = closed * 1e9 / elapsed
            self.window_start_ns = now_ns
            self.window_bytes = 0
        self.bytes += n_bytes
        self.window_bytes += n_bytes
        self.requests += requests
        return closed

    def rate(self, now_ns: Optional[float]) -> float:
        """The current byte rate, decayed against ``now_ns``.

        Without ``now_ns`` this is the last *completed* window's rate —
        which, during silence, reports the final busy window forever.
        With ``now_ns``, once more than a window has elapsed since the
        window opened, the completed rate is stale and the *open*
        window's own bytes-over-elapsed becomes the estimate: still the
        true rate mid-burst, and decaying smoothly to zero through a
        silence — so headroom and admission never police ghosts.
        """
        if now_ns is None:
            return self.rate_bytes_per_s
        elapsed = now_ns - self.window_start_ns
        if elapsed < WINDOW_NS or elapsed <= 0:
            return self.rate_bytes_per_s
        return self.window_bytes * 1e9 / elapsed


class VniStats(_Meter):
    """One VNI's meter, plus the requests refused admission under it."""

    def __init__(self) -> None:
        super().__init__()
        self.dropped = 0


class VniTable:
    """Per-tenant traffic tags on the fabric (Slingshot VNI style).

    HPE Slingshot isolates tenants by stamping every packet with a
    *Virtual Network Identifier* and accounting / policing traffic per
    VNI at the switches.  This is that model for our fabric: tenants
    register a VNI, every batch the traffic engine moves is charged to
    its VNI, and the table maintains per-VNI windowed byte rates plus an
    aggregate, so admission control can tell *which tenant* is driving
    the fabric past capacity and police only the over-share ones.

    All accounting is in simulated time and pure integer/float state —
    charging a VNI never advances a clock and is deterministic, so it
    can sit on the hot path without perturbing golden latencies.
    """

    def __init__(self, capacity_bytes_per_s: float = float("inf")) -> None:
        self.capacity_bytes_per_s = float(capacity_bytes_per_s)
        self._by_name: Dict[str, int] = {}
        self._names: List[str] = []
        self._weights: List[float] = []
        self.stats: List[VniStats] = []
        self._agg = VniStats()

    # -- registration ----------------------------------------------------------

    def register(self, name: str, weight: float = 1.0) -> int:
        """Assign the next VNI to ``name``; ids are dense and ordered by
        registration, so a seeded run assigns identical tags."""
        if name in self._by_name:
            raise VniError(f"tenant {name!r} already holds VNI {self._by_name[name]}")
        if not 0 < weight < math.inf:  # NaN would make every over_share False
            raise VniError(f"VNI weight must be finite and positive, got {weight}")
        vni = len(self._names)
        self._by_name[name] = vni
        self._names.append(name)
        self._weights.append(float(weight))
        self.stats.append(VniStats())
        return vni

    def label_of(self, vni: int) -> str:
        """Tenant name for reports: ``vni:<n>`` where no tenant holds ``vni``."""
        names = self._names
        return names[vni] if 0 <= vni < len(names) else f"vni:{vni}"

    # -- accounting ------------------------------------------------------------

    def charge(self, vni: int, n_bytes: int, requests: int, now_ns: float) -> None:
        """Account ``n_bytes`` / ``requests`` of fabric traffic to ``vni``.

        Windowed rates roll when a window's worth of simulated time has
        elapsed: the completed window's bytes over its actual span
        become the VNI's current ``rate_bytes_per_s``.  Long silences
        therefore decay the rate on the next charge.
        """
        self._check(vni)
        self.stats[vni].add(n_bytes, requests, now_ns)
        self._agg.add(n_bytes, requests, now_ns)
        # dropped is per-VNI only; aggregate drops derive from the sum

    def drop(self, vni: int, requests: int) -> None:
        """Count ``requests`` refused admission for ``vni``."""
        self._check(vni)
        self.stats[vni].dropped += requests

    # -- policy queries --------------------------------------------------------

    def utilisation(self, now_ns: Optional[float] = None) -> float:
        """Aggregate windowed rate over fabric capacity (inf capacity -> 0)."""
        if self.capacity_bytes_per_s == float("inf"):
            return 0.0
        return self._agg.rate(now_ns) / self.capacity_bytes_per_s

    def saturated(self, now_ns: Optional[float] = None) -> bool:
        return self.utilisation(now_ns) >= 1.0

    def over_share(self, vni: int, now_ns: Optional[float] = None) -> bool:
        """Is ``vni``'s windowed rate (decayed to ``now_ns``) past its
        weighted share of fabric capacity?"""
        self._check(vni)
        return self.stats[vni].rate(now_ns) * sum(self._weights) > self.capacity_bytes_per_s * self._weights[vni]

    def _check(self, vni: int) -> None:
        if not 0 <= vni < len(self._names):
            raise VniError(f"no VNI {vni} (have {len(self._names)})")


class _LinkState(_Meter):
    """One fabric link's meter, plus what is link-specific: bytes *per
    VNI* (lifetime and in the open window) and saturation banking — when
    a completed window's rate met or exceeded the link's capacity, every
    VNI's bytes in that window are banked as *saturated bytes*, the raw
    material of contention blame ("of the bytes moved while this link
    was saturated, whose were they?").
    """

    def __init__(self, link: str, window_start_ns: float = 0.0) -> None:
        super().__init__(window_start_ns)
        self.link = link
        self.capacity_bytes_per_s = float("inf")
        self.vni_bytes: Dict[int, int] = {}
        self.vni_window_bytes: Dict[int, int] = {}
        self.vni_saturated_bytes: Dict[int, int] = {}
        self.saturated_bytes = 0
        self.saturated_windows = 0
        #: recent completed windows as ``(end_ns, rate)`` — the slope
        #: input for time-to-saturation forecasting
        self.rates: Deque[Tuple[float, float]] = deque(maxlen=8)
        #: simulated times this link went down (flap forensics)
        self.downs: List[float] = []


class LinkTable:
    """Per-link, per-VNI windowed byte/request accounting.

    The :class:`VniTable` answers "which tenant is driving the fabric";
    this table answers "over which links" — DRackSim-style per-fabric-
    port accounting.  Charges arrive from :meth:`Interconnect.charge`
    already resolved to a routed path, so every byte lands on the exact
    links it traversed.  Pure counter state: charging never advances a
    clock, iteration orders are deterministic, and two same-seed runs
    produce byte-identical rows (:meth:`Interconnect.link_rows` reads them).
    """

    def __init__(self) -> None:
        self._links: Dict[str, _LinkState] = {}

    def get(self, link: str) -> Optional[_LinkState]:
        return self._links.get(link)

    def links(self) -> List[str]:
        return sorted(self._links)

    def charge(
        self,
        link: str,
        vni: int,
        n_bytes: int,
        requests: int,
        now_ns: float,
        capacity_bytes_per_s: float = float("inf"),
    ) -> None:
        """Account one batch's traffic on one link for one VNI."""
        s = self._links.get(link)
        if s is None:
            s = self._links[link] = _LinkState(link, window_start_ns=now_ns)
        s.capacity_bytes_per_s = capacity_bytes_per_s
        closed = s.add(n_bytes, requests, now_ns)
        if closed is not None:
            self._bank(s, closed, now_ns)
        s.vni_bytes[vni] = s.vni_bytes.get(vni, 0) + n_bytes
        s.vni_window_bytes[vni] = s.vni_window_bytes.get(vni, 0) + n_bytes

    def _bank(self, s: _LinkState, closed_bytes: int, now_ns: float) -> None:
        """One window just closed: keep its rate for the slope, and bank
        its bytes per VNI as saturated if it ran at/over capacity."""
        rate = s.rate_bytes_per_s
        s.rates.append((now_ns, rate))
        if rate >= s.capacity_bytes_per_s:
            s.saturated_bytes += closed_bytes
            s.saturated_windows += 1
            for vni in sorted(s.vni_window_bytes):
                s.vni_saturated_bytes[vni] = (
                    s.vni_saturated_bytes.get(vni, 0) + s.vni_window_bytes[vni]
                )
            if _TEL.enabled:
                _TEL.add(RACK_WIDE, "fabric", "link.saturated_window", 1.0)
        s.vni_window_bytes.clear()

    def note_state(self, link: str, up: bool, now_ns: float) -> None:
        """Record a link health transition (downs feed flap forensics)."""
        if not up:
            s = self._links.setdefault(link, _LinkState(link, window_start_ns=now_ns))
            s.downs.append(now_ns)


class FabricGraph:
    """The fabric's own graph: vertices in the order they were added,
    links in the order they were cabled.

    ``adj[u][v]`` and ``adj[v][u]`` are *one* attribute dict (``up``, and
    ``capacity_bytes_per_s`` where the link overrides the fabric's), so a
    write through either direction reaches every holder of that dict —
    the routes :meth:`Interconnect._route` caches included.
    """

    __slots__ = ("kinds", "adj")

    def __init__(self) -> None:
        #: vertex -> "node" / "switch" / "gmem"
        self.kinds: Dict[str, str] = {}
        #: vertex -> {neighbour: the link's attribute dict}
        self.adj: Dict[str, Dict[str, dict]] = {}

    def add_vertex(self, vertex: str, kind: str) -> None:
        self.kinds[vertex] = kind
        self.adj.setdefault(vertex, {})

    def add_edge(self, u: str, v: str) -> dict:
        """Cable ``u`` to ``v`` and return the link's attribute dict, marked
        up.  Re-cabling keeps the dict (and its place in cabling order)."""
        attrs = self.adj[u].get(v)
        if attrs is None:
            attrs = self.adj[u][v] = self.adj[v][u] = {}
        attrs["up"] = True
        return attrs

    def edge(self, u: str, v: str) -> dict:
        try:
            return self.adj[u][v]
        except KeyError:
            raise KeyError(f"no link {u} <-> {v}") from None

    def neighbors(self, vertex: str) -> List[str]:
        """``vertex``'s neighbours, earliest-cabled first (down links too)."""
        return list(self.adj[vertex])

    def shortest_path(self, src: str, dst: str) -> Optional[List[str]]:
        """The route from ``src`` to ``dst`` over links that are up, or
        ``None`` when there is none.

        The routing rule, in full: fewest hops; among routes of equal
        length, the earliest-cabled link at each vertex, decided outward
        from ``src``.  A breadth-first search that scans each vertex's
        links in cabling order and keeps the first parent it finds is
        that rule — a level is discovered in the order of the routes
        leading to it, so the first parent lies on the first route.
        """
        adj = self.adj
        parent: Dict[str, Optional[str]] = {src: None}
        frontier = [src]
        while frontier and dst not in parent:
            reached = []
            for u in frontier:
                for v, attrs in adj[u].items():
                    if attrs["up"] and v not in parent:
                        parent[v] = u
                        reached.append(v)
            frontier = reached
        if dst not in parent:
            return None
        path = [dst]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path.reverse()
        return path


def _checked_capacity(u: str, v: str, bytes_per_s: float) -> float:
    capacity = float(bytes_per_s)
    if not (math.isfinite(capacity) and capacity > 0.0):
        raise ValueError(
            f"link {link_id(u, v)}: capacity must be a finite number of "
            f"bytes/s above zero, got {bytes_per_s!r}"
        )
    return capacity


class Interconnect:
    """A fabric graph with per-link health and cached path costs."""

    def __init__(self) -> None:
        self.graph = FabricGraph()
        #: per node id: its live route to gmem (see :meth:`_route`)
        self._routes: Dict[int, Tuple[PathCost, Tuple[str, ...], Tuple[dict, ...]]] = {}
        #: Bumped whenever topology or link health changes; holders of
        #: path-derived memos (the machine's charge tables) compare-and-drop.
        self.generation = 0
        #: per-tenant traffic tags (VNI accounting + admission policy)
        self.vnis = VniTable()
        #: per-link, per-VNI accounting (the attribution atlas substrate)
        self.links = LinkTable()

    # -- construction --------------------------------------------------------

    def add_node_port(self, node_id: int) -> None:
        self.graph.add_vertex(node_vertex(node_id), "node")

    def add_switch(self, switch_id: int) -> None:
        self.graph.add_vertex(switch_vertex(switch_id), "switch")

    def add_gmem(self) -> None:
        self.graph.add_vertex(GMEM_VERTEX, "gmem")

    def link(
        self, u: str, v: str, capacity_bytes_per_s: Optional[float] = None
    ) -> None:
        """Cable ``u`` to ``v``; ``capacity_bytes_per_s=None`` inherits the
        fabric-wide capacity the VNI table polices against; re-cabling an
        existing link with a capacity overrides its own."""
        for end in (u, v):
            if end not in self.graph.kinds:
                raise InterconnectError(
                    f"cannot link {u} <-> {v}: {end!r} was never added to the fabric"
                )
        if capacity_bytes_per_s is None:
            self.graph.add_edge(u, v)
        else:  # checked before the link exists: a refused spec changes nothing
            capacity = _checked_capacity(u, v, capacity_bytes_per_s)
            self.graph.add_edge(u, v)["capacity_bytes_per_s"] = capacity
        self._routes.clear()
        self.generation += 1

    # -- health ---------------------------------------------------------------

    def set_link_state(
        self, u: str, v: str, up: bool, now_ns: float = 0.0
    ) -> None:
        self.graph.edge(u, v)["up"] = up
        if not up:
            self.links.note_state(link_id(u, v), up=False, now_ns=now_ns)
        self._routes.clear()
        self.generation += 1

    # -- queries ---------------------------------------------------------------

    def _route(self, node_id: int) -> Tuple[PathCost, Tuple[str, ...], Tuple[dict, ...]]:
        """``node_id``'s live route to global memory: its cost, its link
        ids, and each link's edge-attribute dict.

        Computed once per node (keyed by id: a cached route formats no
        vertex name) and dropped on any topology/health change.
        Routing is :meth:`FabricGraph.shortest_path` — a stated rule over
        cabling order, so seeded runs charge identical paths.  The
        attribute dicts are the graph's own, which :meth:`link` writes
        into: a cached route always charges against the capacity in force.
        """
        cached = self._routes.get(node_id)
        if cached is not None:
            return cached
        src, graph = node_vertex(node_id), self.graph
        if src not in graph.kinds or GMEM_VERTEX not in graph.kinds:
            raise InterconnectError(f"{src} or gmem not in fabric")
        path = graph.shortest_path(src, GMEM_VERTEX)
        if path is None:
            raise InterconnectError(f"node {node_id} cannot reach global memory")
        switches = sum(1 for v in path if graph.kinds[v] == "switch")
        hops = list(zip(path, path[1:]))
        links = tuple(link_id(u, v) for u, v in hops)
        edges = tuple(graph.adj[u][v] for u, v in hops)
        cost = PathCost(hops=len(links), switches=switches)
        route = self._routes[node_id] = (cost, links, edges)
        return route

    def path_to_gmem(self, node_id: int) -> PathCost:
        """Hops/switches from ``node_id`` to global memory over live links."""
        return self._route(node_id)[0]

    def path_links(self, node_id: int) -> Tuple[str, ...]:
        """Canonical link ids along ``node_id``'s live route to gmem."""
        return self._route(node_id)[1]

    def charge(
        self, vni: int, node_id: int, n_bytes: int, requests: int, now_ns: float
    ) -> None:
        """Charge one batch to its VNI *and* to every link it traversed.

        The aggregate :class:`VniTable` charge keeps admission policy
        unchanged; the per-link charges feed the attribution atlas.  A
        node with no live route (severed mid-flight) still charges the
        VNI — the bytes were offered to the fabric — but no links.
        """
        self.vnis.charge(vni, n_bytes, requests, now_ns)
        try:
            _, links, edges = self._route(node_id)
        except InterconnectError:
            return
        charge = self.links.charge
        fabric_cap = self.vnis.capacity_bytes_per_s
        for link, attrs in zip(links, edges):
            cap = attrs.get("capacity_bytes_per_s")  # else the fabric-wide one
            charge(link, vni, n_bytes, requests, now_ns,
                   fabric_cap if cap is None else float(cap))

    def reachable(self, node_id: int) -> bool:
        try:
            self._route(node_id)  # not path_to_gmem: a frame less per bulk plan
            return True
        except InterconnectError:
            return False

    def link_rows(self, now_ns: Optional[float] = None) -> List[dict]:
        """Every per-link fact at ``now_ns``, one JSON-ready row per link
        sorted by id — the one place they are computed and rounded.  The
        flight recorder's link tail, the atlas export and the atlas views
        are projections of these rows.

        The rate is :meth:`_Meter.rate` (decayed against ``now_ns``); an
        infinite capacity reads ``None``, as does a time to saturation that
        never comes on the current slope (``0.0``: saturated now).  Each
        tenant's ``share`` is its part of the bytes the link moved during
        saturated windows.
        """
        label = self.vnis.label_of
        rows = []
        for link in self.links.links():
            s = self.links.get(link)
            cap = s.capacity_bytes_per_s
            rate = s.rate(now_ns)
            util, tts = 0.0, None
            if cap != float("inf"):
                util = rate / cap
                if rate >= cap:
                    tts = 0.0
                elif len(s.rates) >= 2:
                    (t0, r0), (t1, r1) = s.rates[0], s.rates[-1]
                    slope = (r1 - r0) * 1e9 / (t1 - t0) if t1 > t0 else 0.0
                    if slope > 0:
                        tts = round((cap - rate) / slope, 6)
            sat, vni_sat = s.saturated_bytes, s.vni_saturated_bytes
            rows.append({
                "link": link,
                "capacity_bytes_per_s": None if cap == float("inf") else cap,
                "bytes": s.bytes,
                "requests": s.requests,
                "rate_bytes_per_s": round(rate, 3),
                "utilisation": round(util, 6),
                "saturated_bytes": sat,
                "saturated_windows": s.saturated_windows,
                "time_to_saturation_s": tts,
                "downs": list(s.downs),
                "tenants": [
                    {"vni": vni, "tenant": label(vni), "bytes": n_bytes,
                     "saturated_bytes": vni_sat.get(vni, 0),
                     "share": round(vni_sat.get(vni, 0) / sat, 6) if sat else 0.0}
                    for vni, n_bytes in sorted(s.vni_bytes.items())
                ],
            })
        return rows
