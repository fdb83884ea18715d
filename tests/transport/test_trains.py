"""Packet-train transport semantics.

Sender emission (window-bounded coalescing, per-packet retransmits),
receiver cumulative advance over train units, ACK width echo for alpha
weighting, and the configuration guard rails.
"""

import pytest

from repro.core.pmsb import PmsbMarker
from repro.net.packet import POOL, make_data, split_train
from repro.net.topology import TopologySpec
from repro.scheduling.dwrr import DwrrScheduler
from repro.sim.engine import Simulator
from repro.transport.base import DctcpConfig
from repro.transport.endpoints import open_flow
from repro.transport.flow import Flow


class TestConfig:
    def test_default_is_per_packet(self):
        assert DctcpConfig().train_packets == 1

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="train_packets"):
            DctcpConfig(train_packets=0)


class TestSplitTrain:
    def test_splits_size_seq_and_width(self):
        packet = make_data(1, 0, 9, 100, 1500 * 8, 0, ect=True)
        packet.train = 8
        tail = split_train(packet, 3)
        assert (packet.train, packet.seq, packet.size) == (3, 100, 4500)
        assert (tail.train, tail.seq, tail.size) == (5, 103, 7500)
        assert tail.ect is True

    def test_rejects_degenerate_split(self):
        packet = make_data(1, 0, 9, 0, 1500 * 4, 0)
        packet.train = 4
        with pytest.raises(ValueError):
            split_train(packet, 0)
        with pytest.raises(ValueError):
            split_train(packet, 4)

    def test_pool_reset_clears_train(self):
        packet = make_data(1, 0, 9, 0, 1500 * 4, 0)
        packet.train = 4
        POOL.release(packet)
        again = POOL.acquire(packet.kind, 1, 0, 9, 0, 1500, 0, False)
        assert again.train == 1


def run_incast_pair(train_packets, duration=0.004, n_senders=9):
    """One 1:8 PMSB incast; returns its flow handles and simulator."""
    sim = Simulator()
    net = TopologySpec("single-bottleneck", senders=n_senders).build(
        sim, lambda: DwrrScheduler(2), lambda: PmsbMarker(16))
    flows = [Flow(flow_id=i, src=i, dst=n_senders,
                  service=0 if i == 0 else 1) for i in range(n_senders)]
    config = DctcpConfig(train_packets=train_packets)
    handles = [open_flow(net, flow, config) for flow in flows]
    sim.run(until=duration)
    return sim, handles


class TestTrainEndToEnd:
    def test_conservation_per_flow(self):
        _, handles = run_incast_pair(train_packets=16)
        for handle in handles:
            sender, receiver = handle.sender, handle.receiver
            # Cumulative ACK point only advances over delivered data.
            assert sender.snd_una <= sender.packets_sent
            assert receiver.packets_received >= sender.snd_una
            assert receiver.bytes_received >= sender.snd_una * 1500
            assert sender.acks_received > 0

    def test_progress_comparable_to_per_packet(self):
        _, per_packet = run_incast_pair(train_packets=1)
        _, trained = run_incast_pair(train_packets=16)
        total_pp = sum(h.sender.snd_una for h in per_packet)
        total_tr = sum(h.sender.snd_una for h in trained)
        assert total_tr == pytest.approx(total_pp, rel=0.15)

    def test_fewer_events_with_trains(self):
        sim_pp, _ = run_incast_pair(train_packets=1)
        sim_tr, _ = run_incast_pair(train_packets=16)
        assert sim_tr.events_processed < sim_pp.events_processed

    def test_train_one_is_byte_identical_to_default(self):
        # train_packets=1 must take the exact per-packet code path.
        _, explicit = run_incast_pair(train_packets=1)
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
            DctcpConfig(train_packets=16),
            on_complete=lambda *completion: done.append(completion))
        sim.run(until=0.05)
        assert done and handle.sender.completed
        assert handle.receiver.packets_received >= handle.sender.total_packets

    def test_retransmissions_are_single_packets(self):
        sim = Simulator()
        # A tiny NIC queue forces drops during slow-start bursts.
        net = TopologySpec("single-bottleneck", senders=2).build(
            sim, lambda: DwrrScheduler(2), lambda: PmsbMarker(16),
            buffer_packets=4)
        handle = open_flow(
            net, Flow(flow_id=1, src=0, dst=2, size_bytes=400 * 1460),
            DctcpConfig(train_packets=16, init_cwnd=64.0))
        sim.run(until=0.2)
        sender = handle.sender
        assert sender.retransmissions > 0
        assert sender.completed

    def test_alpha_weighting_counts_segments(self):
        # With trains the mark fraction must still be computed over
        # segments: a congested incast yields a nonzero alpha of the
        # same magnitude as the per-packet run.
        _, per_packet = run_incast_pair(train_packets=1, duration=0.008)
        _, trained = run_incast_pair(train_packets=16, duration=0.008)
        alpha_pp = sorted(h.sender.alpha for h in per_packet)
        alpha_tr = sorted(h.sender.alpha for h in trained)
        assert max(alpha_tr) > 0
        assert sum(alpha_tr) == pytest.approx(sum(alpha_pp), rel=0.5)
