"""Unit tests for the DCQCN rate-based transport."""

from __future__ import annotations

import pytest

from repro.net.host import Host
from repro.net.packet import ACK, CNP, DATA, NACK, Packet
from repro.transport.dcqcn import DcqcnConfig, DcqcnReceiver, DcqcnSender
from repro.transport.flow import Flow


class FakeHost(Host):
    def __init__(self, sim, host_id):
        super().__init__(sim, host_id)
        self.sent = []

    def send(self, packet):
        self.sent.append(packet)
        return True


def make_receiver(sim, size_bytes=1_000_000, **config_kwargs):
    host = FakeHost(sim, 1)
    flow = Flow(src=0, dst=1, size_bytes=size_bytes)
    receiver = DcqcnReceiver(sim, host, flow, DcqcnConfig(**config_kwargs))
    return receiver, host, flow


def make_sender(sim, size_bytes=None, **config_kwargs):
    host = FakeHost(sim, 0)
    flow = Flow(src=0, dst=1, size_bytes=size_bytes)
    sender = DcqcnSender(sim, host, flow, DcqcnConfig(**config_kwargs))
    sender.start()
    return sender, host, flow


def data(flow, seq, ce=False):
    packet = Packet(DATA, flow.flow_id, flow.src, flow.dst, seq, 1500)
    packet.ce = ce
    return packet


def control(kind, flow, ack_seq=0):
    packet = Packet(kind, flow.flow_id, flow.dst, flow.src, 0, 40, ect=False)
    packet.ack_seq = ack_seq
    return packet


class TestReceiver:
    def test_cnp_on_marked_packet(self, sim):
        receiver, host, flow = make_receiver(sim)
        receiver.on_data(data(flow, 0, ce=True))
        assert [p.kind for p in host.sent] == [CNP]

    def test_cnp_rate_limited(self, sim):
        receiver, host, flow = make_receiver(sim, cnp_interval=50e-6)
        for seq in range(5):
            receiver.on_data(data(flow, seq, ce=True))
        assert receiver.cnps_sent == 1
        sim.run(until=60e-6)
        receiver.on_data(data(flow, 5, ce=True))
        assert receiver.cnps_sent == 2

    def test_unmarked_data_no_cnp(self, sim):
        receiver, host, flow = make_receiver(sim)
        receiver.on_data(data(flow, 0))
        assert receiver.cnps_sent == 0

    def test_nack_on_gap_once(self, sim):
        receiver, host, flow = make_receiver(sim)
        receiver.on_data(data(flow, 0))
        receiver.on_data(data(flow, 2))
        receiver.on_data(data(flow, 3))
        nacks = [p for p in host.sent if p.kind == NACK]
        assert len(nacks) == 1
        assert nacks[0].ack_seq == 1

    def test_gap_fill_re_arms_nack(self, sim):
        receiver, host, flow = make_receiver(sim)
        receiver.on_data(data(flow, 1))           # gap -> NACK(0)
        receiver.on_data(data(flow, 0))           # rewind delivery
        receiver.on_data(data(flow, 1))
        receiver.on_data(data(flow, 3))           # new gap -> NACK(2)
        assert receiver.nacks_sent == 2

    def test_final_ack_on_completion(self, sim):
        receiver, host, flow = make_receiver(sim, size_bytes=2 * 1446)
        receiver.on_data(data(flow, 0))
        receiver.on_data(data(flow, 1))
        assert receiver.completed
        assert [p.kind for p in host.sent] == [ACK]


class TestSenderRateControl:
    def test_paces_at_current_rate(self, sim):
        sender, host, _flow = make_sender(sim, line_rate_bps=12e6)
        sim.run(until=3.5e-3)  # 1 packet/ms at 12 Mbps
        assert 3 <= len([p for p in host.sent if p.kind == DATA]) <= 5

    def test_cnp_cuts_rate_and_raises_alpha(self, sim):
        sender, host, flow = make_sender(sim, g=0.5)
        sender.alpha = 0.5
        before = sender.rate_current
        sender.on_ack(control(CNP, flow))
        assert sender.rate_current == pytest.approx(before * (1 - 0.75 / 2))
        assert sender.alpha == pytest.approx(0.75)
        assert sender.rate_target == before

    def test_rate_floor(self, sim):
        sender, host, flow = make_sender(sim, min_rate_bps=1e6)
        sender.alpha = 1.0
        for _ in range(100):
            sender.on_ack(control(CNP, flow))
        assert sender.rate_current >= 1e6

    def test_alpha_decays_without_cnps(self, sim):
        sender, _host, _flow = make_sender(sim, g=0.25, alpha_timer=1e-4,
                                           line_rate_bps=1e9)
        sim.run(until=1.05e-4)
        assert sender.alpha == pytest.approx(0.75)

    def test_fast_recovery_climbs_back(self, sim):
        sender, host, flow = make_sender(sim, increase_timer=1e-4,
                                         line_rate_bps=10e9)
        sender.on_ack(control(CNP, flow))
        cut_rate = sender.rate_current
        target = sender.rate_target
        sim.run(until=sim.now + 1.05e-4)  # one timer epoch
        assert cut_rate < sender.rate_current <= target

    def test_rate_never_exceeds_line_rate(self, sim):
        sender, _host, flow = make_sender(sim, increase_timer=5e-5,
                                          line_rate_bps=1e9)
        sim.run(until=5e-3)  # many increase epochs, no CNPs
        assert sender.rate_current <= 1e9


class TestSenderReliability:
    def test_nack_rewinds(self, sim):
        sender, host, flow = make_sender(sim, line_rate_bps=10e9)
        sim.run(until=1e-5)
        assert sender.next_seq > 3
        sender.on_ack(control(NACK, flow, ack_seq=2))
        assert sender.next_seq <= 3  # rewound (a packet may already be out)

    def test_final_ack_completes(self, sim):
        done = []
        host = FakeHost(sim, 0)
        flow = Flow(src=0, dst=1, size_bytes=5 * 1446)
        sender = DcqcnSender(sim, host, flow, DcqcnConfig(),
                             on_complete=lambda f, fct, s: done.append(fct))
        sender.start()
        sim.run(until=1e-4)
        sender.on_ack(control(ACK, flow, ack_seq=5))
        assert sender.completed
        assert len(done) == 1
        assert sender.fct is not None

    def test_stops_sending_when_all_sent(self, sim):
        sender, host, _flow = make_sender(sim, size_bytes=3 * 1446,
                                          line_rate_bps=10e9)
        sim.run(until=1e-3)
        data_packets = [p for p in host.sent if p.kind == DATA]
        assert len(data_packets) == 3

    def test_stop_cancels_timers(self, sim):
        sender, host, _flow = make_sender(sim, line_rate_bps=10e9)
        sender.stop()
        count = len(host.sent)
        sim.run(until=1e-3)
        assert len(host.sent) == count


class TestEndToEnd:
    def test_pmsb_protects_rate_based_victim_too(self, sim):
        from repro.core.pmsb import PmsbMarker
        from repro.ecn.per_port import PerPortMarker
        from repro.metrics.throughput import ThroughputMeter
        from repro.net.topology import TopologySpec
        from repro.scheduling.dwrr import DwrrScheduler
        from repro.sim.engine import Simulator
        from repro.transport.dcqcn import open_dcqcn_flow

        def run(marker_factory):
            local_sim = Simulator()
            net = TopologySpec("single-bottleneck", senders=9).build(
                local_sim, lambda: DwrrScheduler(2), marker_factory)
            meter = ThroughputMeter(local_sim, bin_width=1e-3)
            net.observed_ports("bottleneck")[0].observe(meter)
            for i in range(9):
                open_dcqcn_flow(net, Flow(src=i, dst=9,
                                          service=0 if i == 0 else 1))
            local_sim.run(until=0.02)
            return (meter.average_bps(0, 0.008, 0.02),
                    meter.average_bps(1, 0.008, 0.02))

        pp_q0, pp_q1 = run(lambda: PerPortMarker(16))
        pmsb_q0, pmsb_q1 = run(lambda: PmsbMarker(16))
        assert pp_q0 < 0.35 * pp_q1           # rate-based victim
        assert pmsb_q0 > 2.0 * pp_q0          # PMSB reclaims a large share
