"""Memory-interconnect fabric model (CXL / HCCS style).

The fabric is a graph of node ports, switches, and the global-memory
device.  The only thing the machine needs from it is the *path cost* from
a node to global memory — how many hops and switches the access traverses
— plus link health, so that a downed link degrades or severs a node's
access.  Paths are recomputed lazily when topology changes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple
from dataclasses import dataclass


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

    def add(self, n_bytes: int, requests: int, now_ns: float) -> None:
        """Account traffic at ``now_ns``, closing the open window first
        when a window's worth of time has elapsed since it opened."""
        elapsed = now_ns - self.window_start_ns
        if elapsed >= WINDOW_NS and elapsed > 0:
            self.rate_bytes_per_s = self.window_bytes * 1e9 / elapsed
            self.window_start_ns = now_ns
            self.window_bytes = 0
        self.bytes += n_bytes
        self.window_bytes += n_bytes
        self.requests += requests

    def rate(self, now_ns: Optional[float]) -> float:
        """The current byte rate, decayed against ``now_ns``.

        Without ``now_ns`` this is the last *completed* window's rate —
        which, during silence, reports the final busy window forever.
        With ``now_ns``, once more than a window has elapsed since the
        window opened, the completed rate is stale and the *open*
        window's own bytes-over-elapsed becomes the estimate: still the
        true rate mid-burst, and decaying smoothly to zero through a
        silence — so admission never polices ghosts.
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
    """One fabric link's meter, plus what is link-specific: its lifetime
    bytes per VNI and the simulated times it went down."""

    def __init__(self, window_start_ns: float = 0.0) -> None:
        super().__init__(window_start_ns)
        self.vni_bytes: Dict[int, int] = {}
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

    def charge(self, link: str, vni: int, n_bytes: int, requests: int, now_ns: float) -> None:
        """Account one batch's traffic on one link for one VNI."""
        s = self._links.get(link)
        if s is None:
            s = self._links[link] = _LinkState(window_start_ns=now_ns)
        s.add(n_bytes, requests, now_ns)
        s.vni_bytes[vni] = s.vni_bytes.get(vni, 0) + n_bytes

    def note_state(self, link: str, up: bool, now_ns: float) -> None:
        """Record a link health transition (downs feed flap forensics)."""
        if not up:
            s = self._links.setdefault(link, _LinkState(window_start_ns=now_ns))
            s.downs.append(now_ns)


class FabricGraph:
    """The fabric's own graph: vertices in the order they were added,
    links in the order they were cabled.

    ``adj[u][v]`` and ``adj[v][u]`` are *one* attribute dict (``up``), so
    a write through either direction reaches both.
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


class Interconnect:
    """A fabric graph with per-link health and cached path costs."""

    def __init__(self) -> None:
        self.graph = FabricGraph()
        #: per node id: its live route to gmem (see :meth:`_route`)
        self._routes: Dict[int, Tuple[PathCost, Tuple[str, ...]]] = {}
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

    def link(self, u: str, v: str) -> None:
        """Cable ``u`` to ``v`` (re-cabling an existing link marks it up)."""
        for end in (u, v):
            if end not in self.graph.kinds:
                raise InterconnectError(
                    f"cannot link {u} <-> {v}: {end!r} was never added to the fabric"
                )
        self.graph.add_edge(u, v)
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

    def _route(self, node_id: int) -> Tuple[PathCost, Tuple[str, ...]]:
        """``node_id``'s live route to global memory: its cost and its
        link ids.

        Computed once per node (keyed by id: a cached route formats no
        vertex name) and dropped on any topology/health change.
        Routing is :meth:`FabricGraph.shortest_path` — a stated rule over
        cabling order, so seeded runs charge identical paths.
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
        links = tuple(link_id(u, v) for u, v in zip(path, path[1:]))
        route = self._routes[node_id] = (PathCost(hops=len(links), switches=switches), links)
        return route

    def path_to_gmem(self, node_id: int) -> PathCost:
        """Hops/switches from ``node_id`` to global memory over live links."""
        return self._route(node_id)[0]

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
            links = self._route(node_id)[1]
        except InterconnectError:
            return
        charge = self.links.charge
        for link in links:
            charge(link, vni, n_bytes, requests, now_ns)

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
        are projections of these rows.  The rate is :meth:`_Meter.rate`,
        decayed against ``now_ns``.
        """
        label = self.vnis.label_of
        rows = []
        for link in self.links.links():
            s = self.links.get(link)
            rows.append({
                "link": link,
                "bytes": s.bytes,
                "requests": s.requests,
                "rate_bytes_per_s": round(s.rate(now_ns), 3),
                "downs": list(s.downs),
                "tenants": [
                    {"vni": vni, "tenant": label(vni), "bytes": n_bytes}
                    for vni, n_bytes in sorted(s.vni_bytes.items())
                ],
            })
        return rows
