"""The fabric's routing rule, checked against references kept here.

``FabricGraph.shortest_path`` promises: a route iff one exists over links
that are up; of the fewest hops; and, among routes of equal length, the
one that takes the earliest-cabled link at each vertex outward from the
source.  The references below are deliberately the slow, obvious thing —
enumerate every simple path depth-first in cabling order — so a pass says
the rule holds, not that yesterday's answer came back.
"""

import ast
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rack import topology
from repro.rack.interconnect import (
    GMEM_VERTEX,
    FabricGraph,
    Interconnect,
    InterconnectError,
    PathCost,
    link_id,
    node_vertex,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]


# -- references ------------------------------------------------------------------


def simple_paths(adjacency, src, dst):
    """Every simple path src -> dst, depth-first, each vertex's neighbours
    in the order given: paths come out ordered by "earliest link first,
    decided outward from the source"."""
    found = []

    def walk(path):
        here = path[-1]
        if here == dst:
            found.append(list(path))
            return
        for nxt in adjacency[here]:
            if nxt not in path:
                path.append(nxt)
                walk(path)
                path.pop()

    walk([src])
    return found


def reference_route(adjacency, src, dst):
    """The first of the shortest simple paths, or None."""
    paths = simple_paths(adjacency, src, dst)
    if not paths:
        return None
    fewest = min(len(p) for p in paths)
    return next(p for p in paths if len(p) == fewest)


def live_adjacency(graph: FabricGraph):
    """Plain ``{vertex: [neighbour, ...]}`` over up links, cabling order kept."""
    return {
        u: [v for v, attrs in nbrs.items() if attrs["up"]]
        for u, nbrs in graph.adj.items()
    }


# -- (a) random small fabrics ----------------------------------------------------


@st.composite
def small_fabrics(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    cabled = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    cabled = [pair if draw(st.booleans()) else pair[::-1] for pair in cabled]
    down = draw(st.lists(st.sampled_from(cabled), unique=True)) if cabled else []
    return n, cabled, down


def _build(n, cabled, down):
    graph = FabricGraph()
    for i in range(n):
        graph.add_vertex(f"v{i}", "switch")
    for a, b in cabled:
        graph.add_edge(f"v{a}", f"v{b}")
    for a, b in down:
        graph.edge(f"v{a}", f"v{b}")["up"] = False
    return graph


@settings(max_examples=300, deadline=None)
@given(small_fabrics())
@example((4, [(0, 1), (0, 2), (1, 3), (2, 3)], []))  # diamond, v1 cabled first
@example((4, [(0, 2), (0, 1), (1, 3), (2, 3)], []))  # diamond, v2 cabled first
@example((4, [(0, 1), (0, 2), (1, 3), (2, 3)], [(0, 1)]))  # diamond, first arm down
def test_shortest_path_is_the_first_shortest_live_simple_path(fabric):
    n, cabled, down = fabric
    graph = _build(n, cabled, down)
    adjacency = live_adjacency(graph)
    for dst in range(1, n):
        got = graph.shortest_path("v0", f"v{dst}")
        assert got == reference_route(adjacency, "v0", f"v{dst}")
        if got is not None:
            assert all(graph.edge(u, v)["up"] for u, v in zip(got, got[1:]))


@pytest.mark.parametrize("first, second", [("switch:1", "switch:2"), ("switch:2", "switch:1")])
def test_diamond_takes_the_arm_cabled_first(first, second):
    """node -> {sw1, sw2} -> gmem: two equal routes, and the stated tie-break
    (not a library's) picks between them."""
    fabric = Interconnect()
    fabric.add_gmem()
    fabric.add_node_port(0)
    fabric.add_switch(1)
    fabric.add_switch(2)
    fabric.link(node_vertex(0), first)
    fabric.link(node_vertex(0), second)
    fabric.link("switch:1", GMEM_VERTEX)
    fabric.link("switch:2", GMEM_VERTEX)
    assert fabric.path_links(0) == (link_id(node_vertex(0), first), link_id(first, GMEM_VERTEX))
    fabric.set_link_state(node_vertex(0), first, up=False)
    assert fabric.path_links(0) == (link_id(node_vertex(0), second), link_id(second, GMEM_VERTEX))
    assert fabric.path_to_gmem(0) == PathCost(hops=2, switches=1)


def test_both_directions_of_a_link_share_one_attribute_dict():
    graph = _build(2, [(0, 1)], [])
    assert graph.adj["v0"]["v1"] is graph.adj["v1"]["v0"] is graph.edge("v1", "v0")
    assert graph.add_edge("v1", "v0") is graph.edge("v0", "v1")  # re-cabling keeps it
    assert [(u, v) for u, v, _ in _edges(graph)] == [("v0", "v1")]


# -- (b) the stock topologies, every single-link-down state ----------------------


@pytest.mark.parametrize("n_nodes", [1, 2, 5, 16])
@pytest.mark.parametrize("name", sorted(topology.BUILDERS))
def test_stock_topology_routes_equal_the_dfs_reference(name, n_nodes):
    fabric = topology.build(name, n_nodes)
    graph = fabric.graph
    links = [(u, v) for u, v, _ in _edges(graph)]
    for down in [None, *links]:
        if down is not None:
            fabric.set_link_state(*down, up=False)
        adjacency = live_adjacency(graph)
        for node_id in range(n_nodes):
            paths = simple_paths(adjacency, node_vertex(node_id), GMEM_VERTEX)
            assert len(paths) <= 1  # a tree: the route, where there is one, is unique
            if not paths:
                assert not fabric.reachable(node_id)
                with pytest.raises(InterconnectError):
                    fabric.path_to_gmem(node_id)
                with pytest.raises(InterconnectError):
                    fabric.path_links(node_id)
                continue
            (path,) = paths
            assert fabric.path_links(node_id) == tuple(
                link_id(u, v) for u, v in zip(path, path[1:])
            )
            assert fabric.path_to_gmem(node_id) == PathCost(
                hops=len(path) - 1,
                switches=sum(graph.kinds[v] == "switch" for v in path),
            )
        if down is not None:
            fabric.set_link_state(*down, up=True)


# -- (c) census: nothing we build has two routes to choose between ---------------


def _calls(tree, names):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                yield name


def test_every_fabric_we_build_is_a_tree():
    """The tie-break never decides a route in this repository: fabrics are
    built only by ``rack/topology.py``'s builders, and each builds a tree
    (connected, |links| = |vertices| - 1), whose routes are unique in every
    link state.  Should either stop holding, pin the affected routes."""
    builders = {"Interconnect", "FabricGraph", "add_edge", "link"}
    sites = set()
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if any(_calls(ast.parse(path.read_text()), builders)):
                sites.add(str(path.relative_to(ROOT)))
    assert sites == {"src/repro/rack/interconnect.py", "src/repro/rack/topology.py"}

    shapes = [(name, n, {}) for name in sorted(topology.BUILDERS) for n in range(1, 34)]
    shapes += [("two_tier", n, {"nodes_per_leaf": k}) for n in (1, 7, 16) for k in (1, 2, 3, 8)]
    for name, n_nodes, kwargs in shapes:
        graph = topology.BUILDERS[name](n_nodes, **kwargs).graph
        assert len(_edges(graph)) == len(graph.kinds) - 1, (name, n_nodes, kwargs)
        for vertex in graph.kinds:
            assert graph.shortest_path(vertex, GMEM_VERTEX) is not None, (name, vertex)


# -- hostile fabric specs --------------------------------------------------------


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_a_capacity_that_is_not_a_positive_finite_rate_is_refused(bad):
    fabric = topology.single_switch(2, link_capacity_bytes_per_s=2e9)
    for refused in (
        lambda: fabric.link("node:0", "switch:0", capacity_bytes_per_s=bad),
        lambda: topology.build("two_tier", 2, link_capacity_bytes_per_s=bad),
    ):
        with pytest.raises(ValueError) as err:
            refused()
        assert "switch:0" in str(err.value) and repr(bad) in str(err.value)
    # a refused value changed nothing: capacity, generation and routes stand
    assert fabric.graph.edge("node:0", "switch:0")["capacity_bytes_per_s"] == 2e9
    assert fabric.generation == topology.single_switch(2).generation


def test_no_capacity_still_inherits_the_fabric_wide_one():
    fabric = topology.single_switch(2)
    fabric.vnis.capacity_bytes_per_s = 3e9
    fabric.charge(fabric.vnis.register("t"), 0, 100, 1, 0.0)
    assert "capacity_bytes_per_s" not in fabric.graph.edge("node:0", "switch:0")
    assert {fabric.links.get(link).capacity_bytes_per_s for link in fabric.path_links(0)} == {3e9}


def test_linking_a_vertex_that_was_never_added_is_refused():
    fabric = Interconnect()
    fabric.add_gmem()
    with pytest.raises(InterconnectError, match="'node:0' was never added"):
        fabric.link("node:0", GMEM_VERTEX)
    assert "node:0" not in fabric.graph.kinds and not fabric.graph.adj[GMEM_VERTEX]


def _edges(graph):
    """Every link once, as ``(u, v, attrs)`` with ``u < v``."""
    return [(u, v, attrs) for u, nbrs in graph.adj.items() for v, attrs in nbrs.items() if u < v]
