"""Unit tests for the delayed-ACK DCTCP CE state machine."""

from __future__ import annotations

import pytest

from repro.core.pmsb import PmsbMarker
from repro.net.host import Host
from repro.net.packet import make_data
from repro.net.topology import TopologySpec
from repro.scheduling.dwrr import DwrrScheduler
from repro.sim.audit import FabricAuditor
from repro.sim.engine import Simulator
from repro.transport.base import PAYLOAD_BYTES, DctcpConfig
from repro.transport.endpoints import open_flow
from repro.transport.flow import Flow
from repro.transport.receiver import DctcpReceiver


class FakeHost(Host):
    def __init__(self, sim, host_id):
        super().__init__(sim, host_id)
        self.sent = []

    def send(self, packet):
        self.sent.append(packet)
        return True


def make_receiver(sim, ack_every=2, delack_timeout=1e-3):
    host = FakeHost(sim, 1)
    flow = Flow(src=0, dst=1, size_bytes=1_000_000)
    receiver = DctcpReceiver(sim, host, flow, ack_every=ack_every,
                             delack_timeout=delack_timeout)
    return receiver, host, flow


def data(flow, seq, ce=False):
    packet = make_data(flow.flow_id, flow.src, flow.dst, seq)
    packet.sent_time = 0.0
    packet.ce = ce
    return packet


class TestCoalescing:
    def test_acks_every_m_packets(self, sim):
        receiver, host, flow = make_receiver(sim, ack_every=2)
        for seq in range(4):
            receiver.on_data(data(flow, seq))
        assert [a.ack_seq for a in host.sent] == [2, 4]

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            make_receiver(sim, ack_every=0)

    def test_per_packet_mode_unchanged(self, sim):
        receiver, host, flow = make_receiver(sim, ack_every=1)
        for seq in range(3):
            receiver.on_data(data(flow, seq))
        assert [a.ack_seq for a in host.sent] == [1, 2, 3]


class TestCeStateMachine:
    def test_ce_transition_flushes_pending_with_old_state(self, sim):
        receiver, host, flow = make_receiver(sim, ack_every=4)
        receiver.on_data(data(flow, 0, ce=False))   # pending, state 0
        receiver.on_data(data(flow, 1, ce=True))    # transition!
        # First ACK flushed immediately, carrying the OLD (unmarked) state.
        assert len(host.sent) == 1
        assert host.sent[0].ece is False
        assert host.sent[0].ack_seq == 1

    def test_marked_run_acked_with_ece(self, sim):
        receiver, host, flow = make_receiver(sim, ack_every=2)
        receiver.on_data(data(flow, 0, ce=True))
        receiver.on_data(data(flow, 1, ce=True))
        assert len(host.sent) == 1
        assert host.sent[0].ece is True

    def test_marked_byte_accounting_is_exact(self, sim):
        # 2 unmarked, 2 marked, 2 unmarked with m=2: three ACKs whose ECE
        # pattern exactly partitions the packets.
        receiver, host, flow = make_receiver(sim, ack_every=2)
        pattern = [False, False, True, True, False, False]
        for seq, ce in enumerate(pattern):
            receiver.on_data(data(flow, seq, ce=ce))
        assert [a.ece for a in host.sent] == [False, True, False]
        assert [a.ack_seq for a in host.sent] == [2, 4, 6]

    def test_alternating_ce_acks_every_packet(self, sim):
        # Worst case for coalescing: CE flips every packet, so the state
        # machine degenerates to (nearly) per-packet ACKs — by design.
        receiver, host, flow = make_receiver(sim, ack_every=4)
        for seq in range(6):
            receiver.on_data(data(flow, seq, ce=(seq % 2 == 1)))
        assert len(host.sent) >= 5


class TestDelackTimer:
    def test_timer_flushes_straggler(self, sim):
        receiver, host, flow = make_receiver(sim, ack_every=2,
                                             delack_timeout=1e-3)
        receiver.on_data(data(flow, 0))
        assert host.sent == []
        sim.run(until=2e-3)
        assert [a.ack_seq for a in host.sent] == [1]

    def test_timer_cancelled_by_flush(self, sim):
        receiver, host, flow = make_receiver(sim, ack_every=2,
                                             delack_timeout=1e-3)
        receiver.on_data(data(flow, 0))
        receiver.on_data(data(flow, 1))
        sim.run(until=5e-3)
        assert len(host.sent) == 1  # no duplicate from the timer


class TestTimerInterleavings:
    """Interleavings of the delack timer with OOO flushes and CE
    transitions — the corners where a stale timer could duplicate or
    regress an ACK."""

    def test_timer_flushes_tail_after_ooo_flush(self, sim):
        # seq 1 arrives first (gap → immediate dup ACK), then seq 0 fills
        # the gap and advances the cumulative point past both.  The tail
        # sits coalesced until the timer flushes it — with the advanced
        # cumulative point, not a stale one.
        receiver, host, flow = make_receiver(sim, ack_every=4,
                                             delack_timeout=1e-3)
        receiver.on_data(data(flow, 1))
        assert [a.ack_seq for a in host.sent] == [0]  # dup ACK at the gap
        receiver.on_data(data(flow, 0))
        assert receiver.expected_seq == 2
        assert len(host.sent) == 1  # tail coalesced, timer armed
        sim.run(until=5e-3)
        assert [a.ack_seq for a in host.sent] == [0, 2]
        sim.run()
        assert len(host.sent) == 2  # timer does not fire again

    def test_ce_transition_with_timer_pending(self, sim):
        # A CE transition flushes the pending ACK with the OLD state while
        # the timer is armed; the timer must then cover only the new run
        # — no duplicate, and the ECE pattern partitions the bytes
        # exactly.
        receiver, host, flow = make_receiver(sim, ack_every=4,
                                             delack_timeout=1e-3)
        receiver.on_data(data(flow, 0, ce=False))   # pending, timer armed
        receiver.on_data(data(flow, 1, ce=True))    # transition flush
        assert [(a.ack_seq, a.ece) for a in host.sent] == [(1, False)]
        sim.run(until=5e-3)                         # timer covers seq 1
        assert [(a.ack_seq, a.ece) for a in host.sent] == [
            (1, False), (2, True)]
        sim.run()
        assert len(host.sent) == 2

    def test_timer_never_regresses_cumulative_point(self, sim):
        # Timer fires between bursts: a second burst must re-arm it with
        # fresh state, never replay the first burst's ACK.
        receiver, host, flow = make_receiver(sim, ack_every=2,
                                             delack_timeout=1e-3)
        receiver.on_data(data(flow, 0))
        sim.run(until=2e-3)                         # timer → ACK 1
        receiver.on_data(data(flow, 1))
        sim.run(until=4e-3)                         # timer → ACK 2
        assert [a.ack_seq for a in host.sent] == [1, 2]
        acks = [a.ack_seq for a in host.sent]
        assert acks == sorted(acks)

    def test_marked_bytes_partition_exactly_across_timer_flush(self, sim):
        # Mixed CE pattern whose tail is flushed by the timer: every data
        # packet is covered by exactly one ACK and the ECE bits attribute
        # marked/unmarked runs without overlap.
        receiver, host, flow = make_receiver(sim, ack_every=3,
                                             delack_timeout=1e-3)
        pattern = [False, False, True, True, False]
        for seq, ce in enumerate(pattern):
            receiver.on_data(data(flow, seq, ce=ce))
        sim.run(until=5e-3)                         # tail via timer
        spans = [(a.ack_seq, a.ece) for a in host.sent]
        assert spans == [(2, False), (4, True), (5, False)]
        # Partition check: ack points strictly increase to cover all 5.
        points = [s for s, _ in spans]
        assert points == sorted(points)
        assert points[-1] == len(pattern)


class TestOutOfOrderBypassesDelay:
    def test_gap_acks_immediately(self, sim):
        receiver, host, flow = make_receiver(sim, ack_every=4)
        receiver.on_data(data(flow, 0))
        receiver.on_data(data(flow, 2))  # gap at 1: must ACK now
        assert len(host.sent) >= 1
        assert host.sent[-1].ack_seq == 1

    def test_dup_acks_enable_fast_retransmit(self, sim):
        receiver, host, flow = make_receiver(sim, ack_every=4)
        receiver.on_data(data(flow, 0))
        for seq in (2, 3, 4):
            receiver.on_data(data(flow, seq))
        dups = [a for a in host.sent if a.ack_seq == 1]
        assert len(dups) >= 3


class TestSenderWithDelayedAcks:
    """``ack_every > 1`` end to end: DCTCP senders clocked by coalescing
    receivers on a congested 2:1 PMSB incast."""

    @pytest.mark.parametrize("mode", ["fast", "slow-path", "audit"])
    def test_incast_completes_and_alpha_tracks_marks(self, mode, monkeypatch):
        if mode == "slow-path":
            monkeypatch.setenv("REPRO_SLOW_PATH", "1")
        else:
            monkeypatch.delenv("REPRO_SLOW_PATH", raising=False)
        sim = Simulator()
        auditor = FabricAuditor(sim) if mode == "audit" else None
        net = TopologySpec("single-bottleneck", senders=2).build(
            sim, lambda: DwrrScheduler(2), lambda: PmsbMarker(16))
        config = DctcpConfig(ack_every=2)
        incast = [Flow(src=src, dst=2, size_bytes=400 * PAYLOAD_BYTES)
                  for src in (0, 1)]
        # An odd packet count on an idle fabric: no CE transition resets
        # the coalescing parity, so the last segment is left pending
        # alone and only the delack timer acknowledges it.
        straggler = Flow(src=0, dst=2, size_bytes=21 * PAYLOAD_BYTES,
                         start_time=5e-3)
        handles = [open_flow(net, flow, config)
                   for flow in incast + [straggler]]
        if auditor is not None:
            auditor.attach_network(net)
            for handle in handles:
                auditor.watch_flow(handle)
        sim.run(until=0.02)
        if auditor is not None:
            auditor.verify_fabric()

        assert all(handle.sender.completed for handle in handles)
        for handle in handles[:2]:
            assert handle.sender.marks_accepted > 0
            assert 0.0 < handle.sender.alpha < 1.0
        assert straggler.size_packets % 2 == 1
        assert handles[2].sender.fct >= config.delack_timeout
