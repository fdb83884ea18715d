"""Unit tests for TIMELY RTT-gradient congestion control."""

from __future__ import annotations

import pytest

from repro.ecn.base import NullMarker
from repro.net.host import Host
from repro.net.link import Link
from repro.net.packet import make_ack
from repro.net.port import Port
from repro.scheduling.fifo import FifoScheduler
from repro.transport.base import DctcpConfig
from repro.transport.flow import Flow
from repro.transport.timely import TimelySender


class FakeHost(Host):
    def __init__(self, sim, host_id):
        super().__init__(sim, host_id)
        self.sent = []
        # TIMELY reads the line rate from the NIC.
        self.attach_nic(Port(sim, Link(sim, 10e9, 1e-6, self),
                             FifoScheduler(1)))

    def send(self, packet):
        self.sent.append(packet)
        return True


def make_sender(sim):
    host = FakeHost(sim, 0)
    sender = TimelySender(sim, host, Flow(src=0, dst=1), DctcpConfig())
    sender.start()
    return sender, host


def feed_rtt(sim, sender, rtt, spacing=None):
    """Deliver one RTT sample by directly driving the update."""
    if spacing is None:
        spacing = rtt
    sim.run(until=sim.now + spacing)
    sender._timely_update(rtt)


class TestTimelyUpdate:
    def test_starts_at_line_rate(self, sim):
        sender, _host = make_sender(sim)
        assert sender.pacing_rate == 10e9

    def test_below_t_low_additive_increase(self, sim):
        sender, _host = make_sender(sim)
        sender.pacing_rate = 1e9
        feed_rtt(sim, sender, 20e-6)   # establishes prev/min
        feed_rtt(sim, sender, 20e-6)   # < t_low -> +delta
        assert sender.pacing_rate == pytest.approx(
            1e9 + sender.additive_increment)

    def test_above_t_high_multiplicative_decrease(self, sim):
        sender, _host = make_sender(sim)
        sender.pacing_rate = 5e9
        feed_rtt(sim, sender, 100e-6)
        feed_rtt(sim, sender, 400e-6)  # > t_high
        expected = 5e9 * (1 - sender.beta * (1 - sender.t_high / 400e-6))
        assert sender.pacing_rate == pytest.approx(expected)

    def test_positive_gradient_decreases(self, sim):
        sender, _host = make_sender(sim)
        sender.pacing_rate = 5e9
        feed_rtt(sim, sender, 60e-6)
        feed_rtt(sim, sender, 120e-6)  # rising RTT in the band
        assert sender.pacing_rate < 5e9

    def test_negative_gradient_increases(self, sim):
        sender, _host = make_sender(sim)
        sender.pacing_rate = 1e9
        feed_rtt(sim, sender, 150e-6)
        feed_rtt(sim, sender, 100e-6)  # falling RTT in the band
        assert sender.pacing_rate > 1e9

    def test_hyperactive_increase_after_streak(self, sim):
        sender, _host = make_sender(sim)
        sender.pacing_rate = 1e9
        feed_rtt(sim, sender, 150e-6)
        for _ in range(sender.hai_threshold):
            feed_rtt(sim, sender, 100e-6)
        before = sender.pacing_rate
        feed_rtt(sim, sender, 100e-6)
        gain = sender.pacing_rate - before
        assert gain == pytest.approx(
            sender.hai_multiplier * sender.additive_increment)

    def test_rate_floor_and_ceiling(self, sim):
        sender, _host = make_sender(sim)
        sender.pacing_rate = sender.min_rate
        feed_rtt(sim, sender, 100e-6)
        feed_rtt(sim, sender, 1000e-6)
        assert sender.pacing_rate >= sender.min_rate
        sender.pacing_rate = 10e9
        feed_rtt(sim, sender, 20e-6)
        assert sender.pacing_rate <= 10e9

    def test_samples_decimated_to_one_per_min_rtt(self, sim):
        sender, _host = make_sender(sim)
        sender.pacing_rate = 1e9
        feed_rtt(sim, sender, 20e-6)
        feed_rtt(sim, sender, 20e-6)
        rate = sender.pacing_rate
        # A burst of back-to-back samples within one base RTT: ignored.
        sender._timely_update(20e-6)
        sender._timely_update(20e-6)
        assert sender.pacing_rate == rate


class TestEcnIgnored:
    def test_marks_do_not_cut(self, sim):
        sender, host = make_sender(sim)
        cwnd_before = sender.cwnd
        sender.on_ack(make_ack(host.sent[0], 1, ece=True))
        assert sender.cwnd >= cwnd_before


class TestConvergence:
    @pytest.mark.slow
    def test_fair_and_bounded_without_ecn(self, sim):
        from repro.metrics.throughput import ThroughputMeter
        from repro.net.topology import TopologySpec
        from repro.transport.endpoints import open_flow

        net = TopologySpec("single-bottleneck", senders=4).build(
            sim, lambda: FifoScheduler(1), NullMarker)
        meter = ThroughputMeter(sim, bin_width=1e-3)
        (bottleneck,) = net.observed_ports("bottleneck")
        bottleneck.observe(meter)
        handles = [
            open_flow(net, Flow(src=i, dst=4), DctcpConfig(),
                      sender_class=TimelySender)
            for i in range(4)
        ]
        sim.run(until=0.05)
        goodputs = [h.receiver.bytes_received * 8 / 0.05 for h in handles]
        total = sum(goodputs)
        assert total > 8e9                      # high utilization, no ECN
        assert max(goodputs) < 2.0 * min(goodputs)  # rough fairness
        assert bottleneck.drops == 0   # RTT control bounded queue
