"""Failure injection: link flaps mid-transfer."""

from __future__ import annotations

import pytest

from repro.core.pmsb import PmsbMarker
from repro.ecn.base import NullMarker
from repro.net.link import Link
from repro.net.packet import make_data
from repro.net.topology import TopologySpec
from repro.scheduling.dwrr import DwrrScheduler
from repro.scheduling.fifo import FifoScheduler
from repro.sim.engine import Simulator
from repro.transport.base import DctcpConfig
from repro.transport.endpoints import open_flow
from repro.transport.flow import Flow

pytestmark = pytest.mark.slow


class Sink:
    name = "sink"

    def __init__(self):
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


class TestLinkUpDown:
    def test_down_link_discards(self, sim):
        sink = Sink()
        link = Link(sim, 1e9, 1e-6, sink)
        link.set_down()
        link.deliver(make_data(1, 0, 1, 0))
        sim.run()
        assert sink.received == []
        assert link.packets_lost == 1

    def test_restored_link_delivers(self, sim):
        sink = Sink()
        link = Link(sim, 1e9, 1e-6, sink)
        link.set_down()
        link.set_up()
        link.deliver(make_data(1, 0, 1, 0))
        sim.run()
        assert len(sink.received) == 1


class TestInFlightKill:
    """set_down() must also kill packets already propagating — the
    fast lane's fire-and-forget completions cannot be cancelled, so the
    link guards them with an epoch (mirroring Port.reset)."""

    @pytest.mark.parametrize("slow", [False, True])
    def test_in_flight_packet_never_arrives(self, slow):
        sim = Simulator(slow_path=True) if slow else Simulator()
        sink = Sink()
        link = Link(sim, 1e9, 1e-3, sink)
        link.deliver(make_data(1, 0, 1, 0))  # arrives at t=1ms...
        sim.at(0.5e-3, link.set_down)        # ...but the cable is pulled
        sim.run()
        assert sink.received == []
        # The rollback keeps delivered + lost consistent with what the
        # sender port transmitted.
        assert link.packets_delivered == 0
        assert link.packets_lost == 1
        assert link.lost_flight == 1

    def test_restore_does_not_resurrect_in_flight(self, sim):
        # Down *and back up* while propagating: the packet was on a dead
        # wire and must still be discarded.
        sink = Sink()
        link = Link(sim, 1e9, 1e-3, sink)
        link.deliver(make_data(1, 0, 1, 0))
        sim.at(0.4e-3, link.set_down)
        sim.at(0.6e-3, link.set_up)
        sim.run()
        assert sink.received == []
        assert link.lost_flight == 1
        # The restored link carries fresh traffic normally.
        link.deliver(make_data(1, 0, 1, 1))
        sim.run()
        assert [p.seq for p in sink.received] == [1]
        assert link.packets_delivered == 1

    def test_killed_packet_reported_lost_once(self, sim):
        # The auditor's drop channel hears of the kill once, with its
        # reason, and its ledger agrees with the link's counters.
        from repro.sim.audit import FabricAuditor
        auditor = FabricAuditor(sim)
        sink = Sink()
        link = Link(sim, 1e9, 1e-3, sink)
        link.deliver(make_data(1, 0, 1, 0))
        sim.at(0.5e-3, link.set_down)
        sim.run()
        assert auditor.unattached_link_drops == 1
        assert link.loss_breakdown == {"down": 0, "wire": 0, "crc": 0,
                                       "flight": 1}


class TestTransportSurvivesFlap:
    def test_flow_completes_across_bottleneck_flap(self):
        sim = Simulator()
        net = TopologySpec("single-bottleneck", senders=1).build(
            sim, lambda: FifoScheduler(1), NullMarker)
        done = []
        handle = open_flow(
            net, Flow(src=0, dst=1, size_bytes=300_000),
            DctcpConfig(min_rto=2e-3),
            on_complete=lambda f, fct, s: done.append(fct),
        )
        bottleneck_link = net.observed_ports("bottleneck")[0].link
        sim.at(0.2e-3, bottleneck_link.set_down)
        sim.at(1.2e-3, bottleneck_link.set_up)
        sim.run(until=0.5)
        assert len(done) == 1
        assert bottleneck_link.packets_lost > 0
        assert handle.sender.timeouts >= 1  # recovery actually happened
        assert handle.receiver.expected_seq == handle.flow.size_packets

    def test_fabric_flap_with_many_flows(self):
        sim = Simulator()
        net = TopologySpec(
            "leaf-spine", n_leaf=2, n_spine=2, hosts_per_leaf=3).build(
            sim, lambda: DwrrScheduler(8), lambda: PmsbMarker(12))
        done = []
        for i in range(6):
            open_flow(net, Flow(src=i, dst=(i + 3) % 6, size_bytes=60_000,
                                service=i % 8),
                      DctcpConfig(min_rto=2e-3),
                      on_complete=lambda f, fct, s: done.append(f.flow_id))
        # Fail one leaf->spine uplink for a millisecond; ECMP keeps the
        # flows pinned, so affected flows must recover by retransmission.
        uplink = net.switches[0].ports[3].link
        sim.at(0.1e-3, uplink.set_down)
        sim.at(1.1e-3, uplink.set_up)
        sim.run(until=1.0)
        assert len(done) == 6
