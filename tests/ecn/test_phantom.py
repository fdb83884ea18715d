"""Unit tests for the phantom-queue (HULL) marker."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.ecn.base import MarkPoint
from repro.ecn.phantom import PhantomQueueMarker
from repro.net.link import Link
from repro.net.packet import make_data
from repro.net.port import Port
from repro.scheduling.fifo import FifoScheduler


class Sink:
    name = "sink"

    def receive(self, packet):
        pass


RATE = 1e9


def make_port(sim, marker):
    return Port(sim, Link(sim, RATE, 1e-6, Sink()), FifoScheduler(1), marker)


class TestPhantomQueue:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhantomQueueMarker(-1)
        with pytest.raises(ValueError):
            PhantomQueueMarker(1000, drain_factor=0.0)
        with pytest.raises(ValueError):
            PhantomQueueMarker(1000, drain_factor=1.5)

    def test_dequeue_only(self):
        marker = PhantomQueueMarker(3000)
        assert marker.mark_point is MarkPoint.DEQUEUE
        assert MarkPoint.ENQUEUE not in marker.supported_points

    def test_drain_rate_from_port(self, sim):
        marker = PhantomQueueMarker(3000, drain_factor=0.9)
        make_port(sim, marker)
        assert marker._drain_Bps == pytest.approx(0.9 * RATE / 8)

    def test_marks_before_real_queue_builds(self, sim):
        # Line-rate traffic exceeds the phantom drain rate, so the
        # phantom queue grows and marks even though the real queue is
        # nearly empty (the port drains at full line rate).
        marker = PhantomQueueMarker(threshold_bytes=4 * 1500,
                                    drain_factor=0.8)
        port = make_port(sim, marker)
        marked = []
        port.observe(SimpleNamespace(
            departed=lambda p, q, pkt: marked.append(pkt.ce)))
        for seq in range(40):
            sim.at(seq * 1500 * 8 / RATE, port.enqueue,
                   make_data(1, 0, 1, seq), 0)
        sim.run()
        assert any(marked)
        assert max(marked.index(True), 0) < 30  # marks kick in early

    def test_no_marks_below_drain_rate(self, sim):
        # Traffic at half the phantom drain rate never accumulates.
        marker = PhantomQueueMarker(threshold_bytes=2 * 1500,
                                    drain_factor=0.9)
        port = make_port(sim, marker)
        marked = []
        port.observe(SimpleNamespace(
            departed=lambda p, q, pkt: marked.append(pkt.ce)))
        for seq in range(30):
            sim.at(seq * 2 * 1500 * 8 / RATE, port.enqueue,
                   make_data(1, 0, 1, seq), 0)
        sim.run()
        assert not any(marked)

    def test_phantom_leaks_over_idle(self, sim):
        marker = PhantomQueueMarker(threshold_bytes=10 * 1500,
                                    drain_factor=0.5)
        port = make_port(sim, marker)
        for seq in range(5):
            port.enqueue(make_data(1, 0, 1, seq), 0)
        sim.run()
        filled = marker.phantom_bytes
        assert filled > 0
        # Idle long enough to leak everything.
        sim.run(until=sim.now + 1e-3)
        port.enqueue(make_data(1, 0, 1, 99), 0)
        sim.run()
        assert marker.phantom_bytes < filled

    def test_end_to_end_low_standing_queue(self, sim):
        """HULL's promise: with DCTCP senders, the real queue stays near
        zero at the cost of a little throughput headroom."""
        from repro.metrics.queue_trace import QueueOccupancyTrace
        from repro.net.topology import TopologySpec
        from repro.transport.endpoints import open_flow
        from repro.transport.flow import Flow

        net = TopologySpec("single-bottleneck", senders=4).build(
            sim, lambda: FifoScheduler(1),
            lambda: PhantomQueueMarker(3 * 1500, drain_factor=0.9),
            link_rate=1e9)
        trace = QueueOccupancyTrace(net.observed_ports("bottleneck")[0])
        for i in range(4):
            open_flow(net, Flow(src=i, dst=4))
        sim.run(until=0.03)
        # Steady state (second half): tiny real queue.
        midpoint = trace.times[-1] / 2
        steady = [occ for t, occ in zip(trace.times, trace.occupancy)
                  if t >= midpoint]
        assert sum(steady) / len(steady) < 8
