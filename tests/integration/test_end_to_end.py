"""End-to-end integration tests: whole-scenario invariants.

These run real scenarios (transport + switch + marking together) and
assert conservation laws and the paper's headline behaviours.
"""

from __future__ import annotations

import pytest

from repro.core.pmsb import PmsbMarker
from repro.ecn.base import NullMarker
from repro.ecn.per_port import PerPortMarker
from repro.metrics.fct import FctCollector
from repro.metrics.throughput import ThroughputMeter
from repro.net.topology import TopologySpec
from repro.scheduling.dwrr import DwrrScheduler
from repro.scheduling.fifo import FifoScheduler
from repro.sim.engine import Simulator
from repro.transport.base import DctcpConfig
from repro.transport.endpoints import open_flow
from repro.transport.flow import Flow

pytestmark = pytest.mark.slow


class TestConservation:
    def test_every_data_packet_is_acked_exactly_once(self):
        sim = Simulator()
        net = TopologySpec("single-bottleneck", senders=2).build(
            sim, lambda: DwrrScheduler(2), lambda: PmsbMarker(12))
        handles = [
            open_flow(net, Flow(src=i, dst=2, size_bytes=100_000, service=i))
            for i in range(2)
        ]
        sim.run(until=0.05)
        for handle in handles:
            assert handle.fct is not None
            sender = handle.sender
            receiver = handle.receiver
            # All unique data delivered; no unexplained losses.
            assert receiver.packets_received == handle.flow.size_packets
            assert sender.snd_una == handle.flow.size_packets

    def test_no_drops_with_ecn_and_adequate_buffer(self):
        sim = Simulator()
        net = TopologySpec("single-bottleneck", senders=8).build(
            sim, lambda: DwrrScheduler(2), lambda: PmsbMarker(12))
        for i in range(8):
            open_flow(net, Flow(src=i, dst=8, service=i % 2))
        sim.run(until=0.02)
        assert net.observed_ports("bottleneck")[0].drops == 0

    def test_marked_packets_produce_ece_acks(self):
        sim = Simulator()
        net = TopologySpec("single-bottleneck", senders=4).build(
            sim, lambda: FifoScheduler(1), lambda: PerPortMarker(8))
        handles = [open_flow(net, Flow(src=i, dst=4)) for i in range(4)]
        sim.run(until=0.01)
        marker = net.observed_ports("bottleneck")[0].marker
        assert marker.packets_marked > 0
        total_accepted = sum(h.sender.marks_accepted for h in handles)
        assert total_accepted > 0


class TestPaperHeadlines:
    def test_pmsb_protects_victim_where_per_port_does_not(self):
        """The core claim: same scenario, per-port starves queue 1, PMSB
        restores the 50/50 split."""
        def run(marker_factory):
            sim = Simulator()
            net = TopologySpec("single-bottleneck", senders=9).build(
                sim, lambda: DwrrScheduler(2), marker_factory)
            meter = ThroughputMeter(sim, bin_width=1e-3)
            meter.attach_port(net.observed_ports("bottleneck")[0])
            for i in range(9):
                open_flow(net, Flow(src=i, dst=9, service=0 if i == 0 else 1))
            sim.run(until=0.02)
            q0 = meter.average_bps(0, 0.01, 0.02)
            q1 = meter.average_bps(1, 0.01, 0.02)
            return q0, q1

        pp_q0, pp_q1 = run(lambda: PerPortMarker(16))
        pmsb_q0, pmsb_q1 = run(lambda: PmsbMarker(16))
        assert pp_q0 < 0.6 * pp_q1           # victim under per-port
        assert pmsb_q0 == pytest.approx(pmsb_q1, rel=0.15)  # fair under PMSB

    def test_pmsb_keeps_port_occupancy_low(self):
        sim = Simulator()
        net = TopologySpec("single-bottleneck", senders=8).build(
            sim, lambda: DwrrScheduler(2), lambda: PmsbMarker(12))
        for i in range(8):
            open_flow(net, Flow(src=i, dst=8, service=i % 2))
        (bottleneck,) = net.observed_ports("bottleneck")
        samples = []
        for k in range(1, 40):
            sim.at(k * 5e-4, lambda: samples.append(bottleneck.packet_count))
        sim.run(until=0.02)
        steady = samples[len(samples) // 2:]
        assert sum(steady) / len(steady) < 40  # bounded near the threshold

    def test_victims_protected_counter_increments(self):
        sim = Simulator()
        net = TopologySpec("single-bottleneck", senders=9).build(
            sim, lambda: DwrrScheduler(2), lambda: PmsbMarker(16))
        for i in range(9):
            open_flow(net, Flow(src=i, dst=9, service=0 if i == 0 else 1))
        sim.run(until=0.01)
        (bottleneck,) = net.observed_ports("bottleneck")
        assert bottleneck.marker.victims_protected > 0


class TestLeafSpineTransfers:
    def test_many_flows_complete_across_fabric(self):
        sim = Simulator()
        net = TopologySpec(
            "leaf-spine", n_leaf=2, n_spine=2, hosts_per_leaf=3).build(
            sim, lambda: DwrrScheduler(8), lambda: PmsbMarker(12))
        collector = FctCollector()
        flows = [
            Flow(src=i, dst=(i + 3) % 6, size_bytes=50_000, service=i % 8)
            for i in range(6)
        ]
        for flow in flows:
            open_flow(net, flow, DctcpConfig(init_cwnd=16.0),
                      on_complete=collector.on_complete)
        sim.run(until=0.1)
        assert len(collector) == 6

    def test_ecmp_spreads_without_reordering_failures(self):
        sim = Simulator()
        net = TopologySpec(
            "leaf-spine", n_leaf=2, n_spine=2, hosts_per_leaf=4).build(
            sim, lambda: DwrrScheduler(8), lambda: PmsbMarker(12))
        collector = FctCollector()
        flows = [
            Flow(src=i % 4, dst=4 + (i % 4), size_bytes=30_000, service=i % 8)
            for i in range(16)
        ]
        handles = [
            open_flow(net, flow, DctcpConfig(init_cwnd=8.0),
                      on_complete=collector.on_complete)
            for flow in flows
        ]
        sim.run(until=0.1)
        assert len(collector) == 16
        # Single-path-per-flow ECMP means no spurious fast retransmits
        # from reordering.
        assert all(h.sender.fast_retransmits == 0 for h in handles)


class TestFailureInjection:
    def test_recovery_from_severe_buffer_pressure(self):
        """A 20:1 incast into a 30-packet buffer drops heavily; every
        flow must still complete via retransmission."""
        sim = Simulator()
        net = TopologySpec("single-bottleneck", senders=20).build(
            sim, lambda: FifoScheduler(1), NullMarker, buffer_packets=30)
        collector = FctCollector()
        handles = [
            open_flow(net, Flow(src=i, dst=20, size_bytes=30_000),
                      DctcpConfig(init_cwnd=16.0, min_rto=2e-3),
                      on_complete=collector.on_complete)
            for i in range(20)
        ]
        sim.run(until=1.0)
        (bottleneck,) = net.observed_ports("bottleneck")
        assert bottleneck.drops > 0  # pressure was real
        assert len(collector) == 20
        assert all(h.receiver.expected_seq == h.flow.size_packets
                   for h in handles)

    def test_tiny_buffer_with_ecn_still_completes(self):
        sim = Simulator()
        net = TopologySpec("single-bottleneck", senders=10).build(
            sim, lambda: DwrrScheduler(2), lambda: PmsbMarker(6),
            buffer_packets=20)
        collector = FctCollector()
        for i in range(10):
            open_flow(net, Flow(src=i, dst=10, size_bytes=30_000,
                                service=i % 2),
                      DctcpConfig(init_cwnd=8.0, min_rto=2e-3),
                      on_complete=collector.on_complete)
        sim.run(until=1.0)
        assert len(collector) == 10
