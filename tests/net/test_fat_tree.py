"""Unit tests for the fat-tree topology."""

from __future__ import annotations

import pytest

from repro.ecn.base import NullMarker
from repro.net.graph import to_networkx, validate_topology
from repro.net.packet import make_data
from repro.net.topology import TopologySpec
from repro.scheduling.fifo import FifoScheduler


@pytest.fixture
def net(sim):
    return TopologySpec("fat-tree", k=4).build(
        sim, lambda: FifoScheduler(8), NullMarker)


class TestShape:
    def test_counts(self, net):
        assert len(net.hosts) == 16          # k^3/4
        assert len(net.switches) == 20       # 8 edge + 8 agg + 4 core

    def test_arity_validation(self, sim):
        with pytest.raises(ValueError):
            TopologySpec("fat-tree", k=3).build(
                sim, lambda: FifoScheduler(1), NullMarker)
        with pytest.raises(ValueError):
            TopologySpec("fat-tree", k=-2).build(
                sim, lambda: FifoScheduler(1), NullMarker)

    def test_every_port_connected(self, net):
        for switch in net.switches:
            for port in switch.ports:
                assert port.link.dst is not None

    def test_graph_is_strongly_connected(self, net):
        validate_topology(net)  # raises on failure

    def test_edge_counts_in_graph(self, net):
        graph = to_networkx(net)
        # 16 host links + 16 edge-agg + 16 agg-core, bidirectional.
        assert graph.number_of_edges() == 2 * (16 + 16 + 16)


class TestReachability:
    def test_all_pairs_deliver(self, sim, net):
        flow_id = 0
        expected = {}
        for src in range(16):
            for dst in range(16):
                if src == dst:
                    continue
                flow_id += 1
                net.hosts[src].send(make_data(flow_id, src, dst, 0))
                expected[dst] = expected.get(dst, 0) + 1
        sim.run()
        for dst, count in expected.items():
            assert net.hosts[dst].received_packets == count

    def test_same_edge_stays_local(self, sim, net):
        # Hosts 0 and 1 share edge0_0: aggs and cores must not see it.
        net.hosts[0].send(make_data(1, 0, 1, 0))
        sim.run()
        non_edge = [s for s in net.switches
                    if not s.name.startswith("edge")]
        assert all(s.forwarded == 0 for s in non_edge)

    def test_same_pod_avoids_core(self, sim, net):
        # Hosts 0 and 2 share pod 0 but not an edge switch.
        net.hosts[0].send(make_data(1, 0, 2, 0))
        sim.run()
        cores = [s for s in net.switches if s.name.startswith("core")]
        assert all(s.forwarded == 0 for s in cores)

    def test_cross_pod_uses_one_core(self, sim, net):
        net.hosts[0].send(make_data(1, 0, 15, 0))
        sim.run()
        cores = [s for s in net.switches if s.name.startswith("core")]
        assert sum(s.forwarded for s in cores) == 1

    def test_cross_pod_flows_spread_over_cores(self, sim, net):
        for flow_id in range(64):
            net.hosts[0].send(make_data(100 + flow_id, 0, 15, 0))
        sim.run()
        cores = [s for s in net.switches if s.name.startswith("core")]
        used = sum(1 for s in cores if s.forwarded > 0)
        # Host 0's edge hashes across 2 aggs, each agg across 2 cores.
        assert used >= 2
