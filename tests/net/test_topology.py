"""Unit tests for topology builders."""

from __future__ import annotations

import pytest

from repro.ecn.base import NullMarker
from repro.ecn.per_port import PerPortMarker
from repro.net.packet import make_data
from repro.net.topology import TopologySpec
from repro.scheduling.dwrr import DwrrScheduler
from repro.scheduling.fifo import FifoScheduler


def dwrr2():
    return DwrrScheduler(2)


def marker():
    return PerPortMarker(16)


def incast_net(sim, senders):
    return TopologySpec("single-bottleneck", senders=senders).build(
        sim, dwrr2, marker)


class TestSingleBottleneck:
    def test_host_count(self, sim):
        net = incast_net(sim, 4)
        assert len(net.hosts) == 5  # 4 senders + receiver

    def test_bottleneck_is_marked_and_multiqueue(self, sim):
        net = incast_net(sim, 4)
        (port,) = net.observed_ports("bottleneck")
        assert isinstance(port.marker, PerPortMarker)
        assert port.n_queues == 2

    def test_only_bottleneck_is_marked(self, sim):
        net = incast_net(sim, 4)
        assert net.all_marked_ports() == net.observed_ports("bottleneck")

    def test_every_host_has_a_nic(self, sim):
        net = incast_net(sim, 3)
        assert all(host.nic is not None for host in net.hosts)

    def test_sender_to_receiver_path(self, sim):
        net = incast_net(sim, 2)
        receiver = net.hosts[2]
        packet = make_data(1, src=0, dst=2, seq=0)
        net.hosts[0].send(packet)
        sim.run()
        assert receiver.received_packets == 1

    def test_receiver_to_sender_path(self, sim):
        net = incast_net(sim, 2)
        packet = make_data(1, src=2, dst=1, seq=0)
        net.hosts[2].send(packet)
        sim.run()
        assert net.hosts[1].received_packets == 1


class TestLeafSpine:
    @pytest.fixture
    def net(self, sim):
        return TopologySpec(
            "leaf-spine", n_leaf=2, n_spine=2, hosts_per_leaf=3).build(
            sim, lambda: FifoScheduler(8), NullMarker)

    def test_shape(self, sim, net):
        assert len(net.hosts) == 6
        assert len(net.switches) == 4  # 2 leaves + 2 spines

    def test_every_switch_port_is_connected(self, net):
        for switch in net.switches:
            for port in switch.ports:
                assert port.link.dst is not None

    def test_leaf_port_counts(self, net):
        leaf = net.switches[0]
        # 3 host downlinks + 2 spine uplinks.
        assert len(leaf.ports) == 5

    def test_all_pairs_reachable(self, sim, net):
        n = len(net.hosts)
        flow_id = 0
        expected = {}
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                flow_id += 1
                net.hosts[src].send(make_data(flow_id, src, dst, 0))
                expected[dst] = expected.get(dst, 0) + 1
        sim.run()
        for dst, count in expected.items():
            assert net.hosts[dst].received_packets == count

    def test_intra_rack_stays_local(self, sim, net):
        # Host 0 -> host 1 share leaf 0; spines must not see the packet.
        net.hosts[0].send(make_data(1, 0, 1, 0))
        sim.run()
        spines = net.switches[2:]
        assert all(spine.forwarded == 0 for spine in spines)

    def test_inter_rack_crosses_one_spine(self, sim, net):
        net.hosts[0].send(make_data(1, 0, 5, 0))
        sim.run()
        spines = net.switches[2:]
        assert sum(spine.forwarded for spine in spines) == 1

    def test_default_shape_matches_paper(self, sim):
        net = TopologySpec("leaf-spine").build(
            sim, lambda: FifoScheduler(8), NullMarker)
        assert len(net.hosts) == 48
        assert len(net.switches) == 8

    def test_marked_ports_cover_fabric(self, sim):
        net = TopologySpec(
            "leaf-spine", n_leaf=2, n_spine=2, hosts_per_leaf=3).build(
            sim, lambda: DwrrScheduler(8), lambda: PerPortMarker(16))
        # Leaf: 3 downlinks + 2 uplinks each; spine: 2 downlinks each.
        assert len(net.all_marked_ports()) == 2 * 5 + 2 * 2
