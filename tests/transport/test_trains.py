"""ACK-train transport semantics: DCTCP over coalescing receivers.

With ``ack_every = m > 1`` each cumulative ACK covers a train of up to
``m`` segments (the delayed-ACK CE state machine).  These runs check the
configuration surface and, end to end on a congested PMSB incast, that
coalesced ACKs keep per-flow conservation, completion, per-packet
retransmission and a segment-scale DCTCP alpha, against the per-packet
ACK default.
"""

import pytest

from repro.core.pmsb import PmsbMarker
from repro.net.topology import TopologySpec
from repro.scheduling.dwrr import DwrrScheduler
from repro.sim.engine import Simulator
from repro.transport.base import DctcpConfig
from repro.transport.endpoints import open_flow
from repro.transport.flow import Flow


class TestConfig:
    def test_default_is_per_packet(self):
        assert DctcpConfig().ack_every == 1

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="ack_every"):
            DctcpConfig(ack_every=0)


def run_incast_pair(ack_every, duration=0.004, n_senders=9):
    """One 1:8 PMSB incast; returns its simulator and flow handles."""
    sim = Simulator()
    net = TopologySpec("single-bottleneck", senders=n_senders).build(
        sim, lambda: DwrrScheduler(2), lambda: PmsbMarker(16))
    flows = [Flow(flow_id=i, src=i, dst=n_senders,
                  service=0 if i == 0 else 1) for i in range(n_senders)]
    config = DctcpConfig(ack_every=ack_every)
    handles = [open_flow(net, flow, config) for flow in flows]
    sim.run(until=duration)
    return sim, handles


class TestTrainEndToEnd:
    def test_conservation_per_flow(self):
        _, handles = run_incast_pair(ack_every=2)
        for handle in handles:
            sender, receiver = handle.sender, handle.receiver
            # Cumulative ACK point only advances over delivered data.
            assert sender.snd_una <= sender.packets_sent
            assert receiver.packets_received >= sender.snd_una
            assert receiver.bytes_received >= sender.snd_una * 1500
            assert sender.acks_received > 0

    def test_progress_comparable_to_per_packet(self):
        _, per_packet = run_incast_pair(ack_every=1)
        _, coalesced = run_incast_pair(ack_every=2)
        total_pp = sum(h.sender.snd_una for h in per_packet)
        total_co = sum(h.sender.snd_una for h in coalesced)
        assert total_co == pytest.approx(total_pp, rel=0.15)

    def test_fewer_events_with_trains(self):
        sim_pp, _ = run_incast_pair(ack_every=1)
        sim_co, _ = run_incast_pair(ack_every=2)
        assert sim_co.events_processed < sim_pp.events_processed

    def test_train_one_is_byte_identical_to_default(self):
        # ack_every=1 must take the exact per-packet ACK path.
        _, explicit = run_incast_pair(ack_every=1)
        sim = Simulator()
        net = TopologySpec("single-bottleneck", senders=9).build(
            sim, lambda: DwrrScheduler(2), lambda: PmsbMarker(16))
        flows = [Flow(flow_id=i, src=i, dst=9, service=0 if i == 0 else 1)
                 for i in range(9)]
        handles = [open_flow(net, flow, DctcpConfig()) for flow in flows]
        sim.run(until=0.004)
        for a, b in zip(explicit, handles):
            assert a.sender.packets_sent == b.sender.packets_sent
            assert a.sender.snd_una == b.sender.snd_una
            assert a.sender.alpha == b.sender.alpha
            assert a.receiver.marked_packets == b.receiver.marked_packets

    def test_completion_with_trains(self):
        sim = Simulator()
        net = TopologySpec("single-bottleneck", senders=2).build(
            sim, lambda: DwrrScheduler(2), lambda: PmsbMarker(16))
        done = []
        handle = open_flow(
            net, Flow(flow_id=1, src=0, dst=2, size_bytes=200 * 1460),
            DctcpConfig(ack_every=2),
            on_complete=lambda *completion: done.append(completion))
        sim.run(until=0.05)
        assert done and handle.sender.completed
        assert handle.receiver.packets_received >= handle.sender.total_packets

    def test_retransmissions_are_single_packets(self):
        sim = Simulator()
        # Two senders' slow-start bursts into a tiny switch buffer force
        # drops; recovery must resend them and finish both flows.
        net = TopologySpec("single-bottleneck", senders=2).build(
            sim, lambda: DwrrScheduler(2), lambda: PmsbMarker(16),
            buffer_packets=4)
        handles = [open_flow(
            net, Flow(flow_id=src, src=src, dst=2, size_bytes=400 * 1460),
            DctcpConfig(ack_every=2, init_cwnd=64.0)) for src in (0, 1)]
        sim.run(until=0.2)
        assert sum(h.sender.retransmissions for h in handles) > 0
        assert all(h.sender.completed for h in handles)

    def test_alpha_weighting_counts_segments(self):
        # With coalesced ACKs the CE state machine must keep the mark
        # fraction on the segment scale: a congested incast yields a
        # nonzero alpha of the same magnitude as the per-packet run.
        _, per_packet = run_incast_pair(ack_every=1, duration=0.008)
        _, coalesced = run_incast_pair(ack_every=2, duration=0.008)
        alpha_pp = sorted(h.sender.alpha for h in per_packet)
        alpha_co = sorted(h.sender.alpha for h in coalesced)
        assert max(alpha_co) > 0
        assert sum(alpha_co) == pytest.approx(sum(alpha_pp), rel=0.5)
