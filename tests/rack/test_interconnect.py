"""Tests for fabric topologies and link-health path computation."""

import pytest

from repro.rack.interconnect import GMEM_VERTEX, Interconnect, InterconnectError, node_vertex, switch_vertex
from repro.rack import topology


class TestTopologies:
    def test_dual_direct_is_one_hop(self):
        fabric = topology.dual_direct(2)
        for node in range(2):
            cost = fabric.path_to_gmem(node)
            assert cost.hops == 1 and cost.switches == 0

    def test_single_switch_adds_hop_and_switch(self):
        fabric = topology.single_switch(4)
        cost = fabric.path_to_gmem(3)
        assert cost.hops == 2 and cost.switches == 1

    def test_two_tier_has_two_switches(self):
        fabric = topology.two_tier(8, nodes_per_leaf=4)
        cost = fabric.path_to_gmem(7)
        assert cost.hops == 3 and cost.switches == 2

    def test_builder_lookup(self):
        assert topology.build("dual_direct", 2).path_to_gmem(0).hops == 1
        with pytest.raises(KeyError):
            topology.build("mesh-of-dreams", 2)


class TestLinkHealth:
    def test_down_link_severs_node(self):
        fabric = topology.dual_direct(2)
        fabric.set_link_state(node_vertex(0), GMEM_VERTEX, up=False)
        assert not fabric.reachable(0)
        assert fabric.reachable(1)

    def test_link_restoration(self):
        fabric = topology.dual_direct(2)
        fabric.set_link_state(node_vertex(0), GMEM_VERTEX, up=False)
        fabric.set_link_state(node_vertex(0), GMEM_VERTEX, up=True)
        assert fabric.reachable(0)

    def test_unknown_link_raises(self):
        fabric = topology.dual_direct(2)
        with pytest.raises(KeyError):
            fabric.set_link_state("node:0", "node:1", up=False)

    def test_leaf_loss_severs_only_its_group(self):
        fabric = topology.two_tier(8, nodes_per_leaf=4)
        fabric.set_link_state(switch_vertex(1), switch_vertex(0), up=False)
        assert not fabric.reachable(0)  # group 1 (nodes 0-3)
        assert fabric.reachable(4)  # group 2 unaffected

    def test_path_cache_invalidated_on_change(self):
        fabric = topology.single_switch(2)
        assert fabric.path_to_gmem(0).hops == 2
        fabric.set_link_state(node_vertex(0), switch_vertex(0), up=False)
        with pytest.raises(InterconnectError):
            fabric.path_to_gmem(0)


class TestEmptyFabric:
    def test_missing_gmem_raises(self):
        fabric = Interconnect()
        fabric.add_node_port(0)
        with pytest.raises(InterconnectError):
            fabric.path_to_gmem(0)
