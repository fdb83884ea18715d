"""Unit tests for networkx topology export."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.ecn.base import NullMarker
from repro.net.graph import to_networkx, validate_topology
from repro.net.topology import TopologySpec
from repro.scheduling.fifo import FifoScheduler


def build_bottleneck(sim, n=3):
    return TopologySpec("single-bottleneck", senders=n).build(
        sim, lambda: FifoScheduler(1), NullMarker)


class TestToNetworkx:
    def test_nodes_typed(self, sim):
        graph = to_networkx(build_bottleneck(sim))
        kinds = nx.get_node_attributes(graph, "kind")
        assert kinds["sw0"] == "switch"
        assert kinds["host0"] == "host"

    def test_edges_carry_link_attributes(self, sim):
        graph = to_networkx(build_bottleneck(sim))
        data = graph.get_edge_data("host0", "sw0")
        assert data["bandwidth"] == 10e9
        assert data["delay"] == pytest.approx(5e-6)

    def test_edge_count_matches_links(self, sim):
        # n senders: n NIC links + n reverse + 1 bottleneck + 1 recv NIC.
        graph = to_networkx(build_bottleneck(sim, n=3))
        assert graph.number_of_edges() == 8

    def test_leaf_spine_diameter(self, sim):
        net = TopologySpec(
            "leaf-spine", n_leaf=2, n_spine=2, hosts_per_leaf=2).build(
            sim, lambda: FifoScheduler(8), NullMarker)
        graph = to_networkx(net)
        # host -> leaf -> spine -> leaf -> host = 4 hops max.
        assert nx.diameter(graph.to_undirected()) == 4


class TestValidateTopology:
    def test_valid_fabric_passes(self, sim):
        validate_topology(build_bottleneck(sim))

    def test_detects_missing_route(self, sim):
        net = build_bottleneck(sim)
        # Sever the receiver's NIC: hosts can no longer be reached from it.
        net.hosts[-1].nic.link.dst = None
        with pytest.raises(ValueError):
            validate_topology(net)
