"""Fabric topology builders.

Each builder returns an :class:`~repro.rack.interconnect.Interconnect`
wired for ``n_nodes``.  ``dual_direct`` reproduces the paper's physical
testbed (two Kunpeng nodes joined by HCCS with directly attached shared
memory); the switched variants model larger CXL 3.x style racks where
accesses traverse one or two switch levels.
"""

from __future__ import annotations

from typing import Callable, Dict

from .interconnect import GMEM_VERTEX, Interconnect, node_vertex, switch_vertex


def dual_direct(n_nodes: int) -> Interconnect:
    """Every node port is cabled straight to the global memory device."""
    fabric = Interconnect()
    fabric.add_gmem()
    for node_id in range(n_nodes):
        fabric.add_node_port(node_id)
        fabric.link(node_vertex(node_id), GMEM_VERTEX)
    return fabric


def single_switch(n_nodes: int) -> Interconnect:
    """All nodes reach global memory through one shared switch."""
    fabric = Interconnect()
    fabric.add_gmem()
    fabric.add_switch(0)
    fabric.link(switch_vertex(0), GMEM_VERTEX)
    for node_id in range(n_nodes):
        fabric.add_node_port(node_id)
        fabric.link(node_vertex(node_id), switch_vertex(0))
    return fabric


def two_tier(n_nodes: int, nodes_per_leaf: int = 4) -> Interconnect:
    """Leaf switches per group of nodes, a spine switch in front of gmem.

    Leaf switches also interconnect through the spine, so losing the
    spine severs global memory but a leaf loss only severs its group.
    """
    fabric = Interconnect()
    fabric.add_gmem()
    spine = 0
    fabric.add_switch(spine)
    fabric.link(switch_vertex(spine), GMEM_VERTEX)
    n_leaves = max(1, (n_nodes + nodes_per_leaf - 1) // nodes_per_leaf)
    for leaf in range(1, n_leaves + 1):
        fabric.add_switch(leaf)
        fabric.link(switch_vertex(leaf), switch_vertex(spine))
    for node_id in range(n_nodes):
        leaf = 1 + node_id // nodes_per_leaf
        fabric.add_node_port(node_id)
        fabric.link(node_vertex(node_id), switch_vertex(leaf))
    return fabric


BUILDERS: Dict[str, Callable[..., Interconnect]] = {
    "dual_direct": dual_direct,
    "single_switch": single_switch,
    "two_tier": two_tier,
}


def build(name: str, n_nodes: int) -> Interconnect:
    """Look up a topology builder by name and run it."""
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown topology {name!r}; choose from {sorted(BUILDERS)}") from None
    return builder(n_nodes)
