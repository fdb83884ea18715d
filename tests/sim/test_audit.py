"""Unit tests for the fabric invariant auditor.

Each validator is exercised both ways: healthy traffic passes, and a
deliberately corrupted counter (or an illegal operation) raises an
:class:`~repro.sim.audit.InvariantViolation` naming that validator.
"""

from __future__ import annotations

import pytest

from repro.ecn.base import Marker, MarkPoint, NullMarker
from repro.ecn.service_pool import BufferPool
from repro.net.link import Link
from repro.net.packet import make_ack, make_data
from repro.net.port import Port
from repro.scheduling.fifo import FifoScheduler
from repro.scheduling.dwrr import DwrrScheduler
from repro.store.spec import RunConfig
from repro.sim.audit import FabricAuditor, InvariantViolation


class Sink:
    name = "sink"

    def __init__(self):
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def make_port(sim, n_queues=1, marker=None, buffer_packets=None, pool=None,
              bandwidth=1e9, delay=1e-6):
    sink = Sink()
    link = Link(sim, bandwidth, delay, sink)
    port = Port(sim, link, FifoScheduler(n_queues), marker,
                buffer_packets=buffer_packets, pool=pool)
    return port, sink


def audited_port(sim, **kwargs):
    auditor = FabricAuditor(sim)
    port, sink = make_port(sim, **kwargs)
    auditor.attach_port(port)
    return auditor, port, sink


class DequeueMarker(Marker):
    """Marks every ECT packet at dequeue."""

    supported_points = frozenset(MarkPoint)

    def __init__(self):
        super().__init__(MarkPoint.DEQUEUE)

    def decide(self, port, queue_index, packet):
        return True


class TestDefaults:
    def test_audit_disabled_by_default(self, small_incast):
        # No audit field set: nothing rides along — there is no
        # process-wide switch left to consult.
        assert small_incast().network.sim.auditor is None

    def test_explicit_flag_wins(self, small_incast):
        # RunConfig.audit is the one carrier, and an audited run leaves
        # the next one in the same process unaudited.
        audited = small_incast(RunConfig(audit=True)).network.sim.auditor
        assert isinstance(audited, FabricAuditor)
        assert small_incast(RunConfig(audit=False)).network.sim.auditor \
            is None
        assert small_incast().network.sim.auditor is None

    def test_no_hooks_without_auditor(self, sim):
        # Zero-cost-when-disabled: a bare port carries no audit hooks.
        port, _sink = make_port(sim)
        assert sim.auditor is None
        assert port.enqueue_listeners == []
        assert port.dequeue_listeners == []
        assert port.drop_listeners == []
        assert port.scheduler.clear_observer is None


class TestAttachment:
    def test_installs_as_sim_auditor(self, sim):
        auditor = FabricAuditor(sim)
        assert sim.auditor is auditor

    def test_second_auditor_rejected(self, sim):
        FabricAuditor(sim)
        with pytest.raises(ValueError):
            FabricAuditor(sim)

    def test_attach_port_is_idempotent(self, sim):
        auditor, port, _sink = audited_port(sim)
        auditor.attach_port(port)
        assert len(port.enqueue_listeners) == 1
        assert len(port.dequeue_listeners) == 1

    def test_detach_removes_all_hooks(self, sim):
        auditor, port, _sink = audited_port(sim)
        auditor.detach()
        assert port.enqueue_listeners == []
        assert port.dequeue_listeners == []
        assert port.drop_listeners == []
        assert port.scheduler.clear_observer is None
        assert sim.auditor is None
        # A fresh auditor can now attach.
        FabricAuditor(sim)

    def test_report_mentions_counts(self, sim):
        auditor, port, _sink = audited_port(sim)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        sim.run()
        assert "1 ports" in auditor.report()
        assert auditor.checks > 0


class TestHealthyTraffic:
    def test_clean_run_passes_all_checks(self, sim):
        auditor, port, sink = audited_port(sim, n_queues=2)
        for seq in range(5):
            port.enqueue(make_data(1, 0, 1, seq), seq % 2)
        sim.run()
        assert len(sink.received) == 5
        assert auditor.verify_fabric() > 0

    def test_legit_buffer_drop_passes(self, sim):
        auditor, port, _sink = audited_port(sim, buffer_packets=1)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        port.enqueue(make_data(1, 0, 1, 1), 0)  # dropped, justified
        sim.run()
        auditor.verify_fabric()

    def test_legit_pool_rejection_passes(self, sim):
        pool = BufferPool(capacity_packets=1)
        auditor = FabricAuditor(sim)
        port, _sink = make_port(sim, pool=pool)
        auditor.attach_port(port)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        port.enqueue(make_data(1, 0, 1, 1), 0)  # pool rejects
        sim.run()
        auditor.verify_fabric()

    def test_dequeue_marking_passes(self, sim):
        auditor, port, sink = audited_port(sim, marker=DequeueMarker())
        port.enqueue(make_data(1, 0, 1, 0), 0)
        sim.run()
        assert sink.received[0].ce
        auditor.verify_fabric()


class TestPortValidators:
    def test_port_occupancy(self, sim):
        auditor, port, _sink = audited_port(sim)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        port._packet_count += 1  # corrupt the total
        with pytest.raises(InvariantViolation) as err:
            auditor.verify_port(port)
        assert err.value.counter == "port-occupancy"

    def test_queue_occupancy(self, sim):
        auditor, port, _sink = audited_port(sim)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        port.enqueue(make_data(1, 0, 1, 1), 0)
        # Steal the queued packet from the scheduler behind the port's back.
        port.scheduler._pop(0)
        with pytest.raises(InvariantViolation) as err:
            auditor.verify_port(port)
        assert err.value.counter == "queue-occupancy"

    def test_packet_conservation(self, sim):
        auditor, port, _sink = audited_port(sim)
        # Sneak a packet in without the enqueue listener seeing it: the
        # occupancy views agree with each other but not with the ledger.
        packet = make_data(1, 0, 1, 0)
        port.scheduler.enqueue(0, packet)
        port._packet_count += 1
        port._byte_count += packet.size
        port._queue_packets[0] += 1
        port._queue_bytes[0] += packet.size
        with pytest.raises(InvariantViolation) as err:
            auditor.verify_port(port)
        assert err.value.counter == "packet-conservation"

    def test_tx_counter(self, sim):
        auditor, port, _sink = audited_port(sim)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        sim.run()
        port.tx_packets += 1  # phantom transmission
        with pytest.raises(InvariantViolation) as err:
            auditor.verify_port(port)
        assert err.value.counter == "tx-counter"

    def test_drop_counter(self, sim):
        auditor, port, _sink = audited_port(sim)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        sim.run()
        port.drops += 1  # phantom drop
        with pytest.raises(InvariantViolation) as err:
            auditor.verify_port(port)
        assert err.value.counter == "drop-counter"

    def test_link_conservation(self, sim):
        auditor, port, _sink = audited_port(sim)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        sim.run()
        port.link.packets_lost += 1  # phantom loss
        with pytest.raises(InvariantViolation) as err:
            auditor.verify_port(port)
        assert err.value.counter == "link-conservation"

    def test_unjustified_drop(self, sim):
        auditor, port, _sink = audited_port(sim)  # unbounded, no pool
        with pytest.raises(InvariantViolation) as err:
            port._drop(0, make_data(1, 0, 1, 0))
        assert err.value.counter == "unjustified-drop"


class TestPoolValidators:
    def test_pool_balance(self, sim):
        pool = BufferPool(capacity_packets=10)
        auditor = FabricAuditor(sim)
        port, _sink = make_port(sim, pool=pool)
        auditor.attach_port(port)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        pool.packet_count += 1  # phantom pool debit
        with pytest.raises(InvariantViolation) as err:
            auditor.verify_fabric()
        assert err.value.counter == "pool-balance"

    def test_residual_for_unaudited_member(self, sim):
        # A port sharing the pool but not audited contributes a residual,
        # not a violation.  (The residual is sampled at attach time, so
        # the outsider's occupancy must stay put — its link is glacial.)
        pool = BufferPool(capacity_packets=10)
        auditor = FabricAuditor(sim)
        outsider, _ = make_port(sim, pool=pool, bandwidth=1.0)
        outsider.enqueue(make_data(9, 0, 1, 0), 0)
        port, _sink = make_port(sim, pool=pool)
        auditor.attach_port(port)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        sim.run(until=1e-3)  # audited port drains; outsider still serializing
        auditor.verify_fabric()


class TestSharedBufferValidators:
    def _shared_port(self, sim, auditor, shared, name="p"):
        sink = Sink()
        link = Link(sim, 1e9, 1e-6, sink)
        port = Port(sim, link, FifoScheduler(1), None,
                    pool=shared.port_account(name, link))
        auditor.attach_port(port)
        return port

    def test_clean_shared_traffic_passes(self, sim):
        from repro.net.sharedbuf import DynamicThresholdPolicy, SharedBuffer
        shared = SharedBuffer(16, DynamicThresholdPolicy(1.0))
        auditor = FabricAuditor(sim)
        port_a = self._shared_port(sim, auditor, shared, "a")
        port_b = self._shared_port(sim, auditor, shared, "b")
        for seq in range(4):
            port_a.enqueue(make_data(1, 0, 1, seq), 0)
            port_b.enqueue(make_data(2, 0, 1, seq), 0)
        sim.run()
        assert auditor.verify_fabric() > 0

    def test_phantom_shared_debit_fails_conservation(self, sim):
        from repro.net.sharedbuf import SharedBuffer
        shared = SharedBuffer(16)
        auditor = FabricAuditor(sim)
        port = self._shared_port(sim, auditor, shared)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        shared.packet_count += 1  # phantom debit: totals leave the ledger
        with pytest.raises(InvariantViolation) as err:
            auditor.verify_fabric()
        assert err.value.counter == "sharedbuf-conservation"

    def test_occupancy_over_capacity_fails(self, sim):
        from repro.net.sharedbuf import SharedBuffer
        shared = SharedBuffer(8)
        auditor = FabricAuditor(sim)
        port = self._shared_port(sim, auditor, shared)
        for seq in range(6):
            port.enqueue(make_data(1, 0, 1, seq), 0)
        shared.capacity_packets = 4  # shrink below live occupancy
        with pytest.raises(InvariantViolation) as err:
            auditor.verify_fabric()
        assert err.value.counter == "sharedbuf-capacity"


class TestEcnValidators:
    def test_ce_without_ect_is_illegal(self, sim):
        _auditor, port, _sink = audited_port(sim)
        packet = make_data(1, 0, 1, 0, ect=False)
        packet.ce = True
        with pytest.raises(InvariantViolation) as err:
            port.enqueue(packet, 0)
        assert err.value.counter == "ecn-legality"

    def test_ce_appearing_in_transit_without_dequeue_marker(self, sim):
        _auditor, port, _sink = audited_port(sim, marker=NullMarker())
        packet = make_data(1, 0, 1, 0)
        port.enqueue(packet, 0)
        packet.ce = True  # nobody may set CE inside this port
        with pytest.raises(InvariantViolation) as err:
            sim.run()
        assert err.value.counter == "ce-without-marker"


class TestEngineHygiene:
    def test_wedged_port_reported_on_next_event(self, sim):
        _auditor, port, _sink = audited_port(sim)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        sim.clear()  # drops the in-flight completion; port still busy
        with pytest.raises(InvariantViolation) as err:
            port.enqueue(make_data(1, 0, 1, 1), 0)
        assert err.value.counter == "engine-hygiene"

    def test_clear_then_reset_is_clean(self, sim):
        auditor, port, sink = audited_port(sim)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        sim.clear()
        port.reset()
        port.enqueue(make_data(1, 0, 1, 1), 0)
        sim.run()
        assert [p.seq for p in sink.received] == [1]
        assert auditor.clears_observed == 1
        auditor.verify_fabric()

    def test_rogue_scheduler_clear_caught(self, sim):
        _auditor, port, _sink = audited_port(sim)
        port.enqueue(make_data(1, 0, 1, 0), 0)  # goes in service
        port.enqueue(make_data(1, 0, 1, 1), 0)  # queued
        with pytest.raises(InvariantViolation) as err:
            port.scheduler.clear()  # bypasses Port.reset
        assert err.value.counter == "scheduler-cleared-under-port"

    def test_port_reset_rebaselines(self, sim):
        auditor, port, sink = audited_port(sim)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        port.enqueue(make_data(1, 0, 1, 1), 0)
        port.reset()  # discards both without dequeue events
        port.enqueue(make_data(1, 0, 1, 2), 0)
        sim.run()
        assert [p.seq for p in sink.received] == [2]
        auditor.verify_fabric()


class TestViolationStructure:
    def test_fields_and_message(self, sim):
        auditor, port, _sink = audited_port(sim)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        port._packet_count += 1
        with pytest.raises(InvariantViolation) as err:
            auditor.verify_port(port)
        violation = err.value
        assert violation.counter == "port-occupancy"
        assert violation.subject == port.name
        assert violation.view_a[0] == "port._packet_count"
        assert violation.view_a[1] == 2
        assert violation.view_b[1] == 1
        assert violation.event == "verify_port"
        assert violation.time == sim.now
        assert "port-occupancy" in str(violation)
        assert isinstance(violation, AssertionError)


class TestTransportValidators:
    """The flow-level validators, driven through a real topology."""

    @staticmethod
    def _audited_flow(sim):
        from repro.net.topology import TopologySpec
        from repro.transport.endpoints import open_flow
        from repro.transport.flow import Flow

        auditor = FabricAuditor(sim)
        network = TopologySpec("single-bottleneck", senders=1).build(
            sim, lambda: DwrrScheduler(1), NullMarker)
        auditor.attach_network(network)
        handle = open_flow(network, Flow(src=0, dst=1, size_bytes=30_000))
        return auditor, network, handle

    def test_clean_flow_passes(self, sim):
        auditor, _network, handle = self._audited_flow(sim)
        sim.run(until=0.05)
        assert handle.fct is not None
        assert auditor.flows_watched == 1
        auditor.verify_fabric()

    def test_ecn_echo_without_ce_observed(self, sim):
        _auditor, _network, handle = self._audited_flow(sim)
        sim.run(until=0.05)
        fake_data = make_data(handle.flow.flow_id, handle.flow.dst,
                              handle.flow.src, 0)
        fake_data.sent_time = 0.0
        ack = make_ack(fake_data, handle.sender.snd_una, ece=True)
        assert handle.receiver.marked_packets == 0
        with pytest.raises(InvariantViolation) as err:
            handle.sender.host.receive(ack)
        assert err.value.counter == "ecn-echo"

    def test_cwnd_floor(self, sim, monkeypatch):
        from repro.transport.dctcp import DctcpSender

        _auditor, _network, handle = self._audited_flow(sim)
        sim.run(until=0.05)

        def broken_on_ack(self, ack):
            self.cwnd = 0.25

        monkeypatch.setattr(DctcpSender, "on_ack", broken_on_ack)
        fake_data = make_data(handle.flow.flow_id, handle.flow.dst,
                              handle.flow.src, 0)
        fake_data.sent_time = 0.0
        ack = make_ack(fake_data, handle.sender.snd_una, ece=False)
        with pytest.raises(InvariantViolation) as err:
            handle.sender.host.receive(ack)
        assert err.value.counter == "cwnd>=1"

    def test_snd_una_monotone(self, sim, monkeypatch):
        from repro.transport.dctcp import DctcpSender

        _auditor, _network, handle = self._audited_flow(sim)
        sim.run(until=0.05)

        def broken_on_ack(self, ack):
            self.snd_una -= 1

        monkeypatch.setattr(DctcpSender, "on_ack", broken_on_ack)
        fake_data = make_data(handle.flow.flow_id, handle.flow.dst,
                              handle.flow.src, 0)
        fake_data.sent_time = 0.0
        ack = make_ack(fake_data, handle.sender.snd_una, ece=False)
        with pytest.raises(InvariantViolation) as err:
            handle.sender.host.receive(ack)
        assert err.value.counter == "snd_una-monotone"

    def test_snd_una_bounded_by_next_seq(self, sim, monkeypatch):
        from repro.transport.dctcp import DctcpSender

        _auditor, _network, handle = self._audited_flow(sim)
        sim.run(until=0.05)

        def broken_on_ack(self, ack):
            self.snd_una = self.next_seq + 5

        monkeypatch.setattr(DctcpSender, "on_ack", broken_on_ack)
        fake_data = make_data(handle.flow.flow_id, handle.flow.dst,
                              handle.flow.src, 0)
        fake_data.sent_time = 0.0
        ack = make_ack(fake_data, handle.sender.snd_una, ece=False)
        with pytest.raises(InvariantViolation) as err:
            handle.sender.host.receive(ack)
        assert err.value.counter == "snd_una<=next_seq"

    def test_karn_rule(self, sim, monkeypatch):
        from repro.transport.dctcp import DctcpSender

        _auditor, _network, handle = self._audited_flow(sim)
        sim.run(until=0.05)

        def broken_on_ack(self, ack):
            # Illegally takes an RTT sample from a retransmitted ACK.
            self.srtt = 123.0

        monkeypatch.setattr(DctcpSender, "on_ack", broken_on_ack)
        fake_data = make_data(handle.flow.flow_id, handle.flow.dst,
                              handle.flow.src, 0)
        fake_data.sent_time = 0.0
        fake_data.retransmit = True
        ack = make_ack(fake_data, handle.sender.snd_una, ece=False)
        assert ack.retransmit
        with pytest.raises(InvariantViolation) as err:
            handle.sender.host.receive(ack)
        assert err.value.counter == "karn-rtt-sample"

    def test_receiver_cumulative_monotone(self, sim, monkeypatch):
        from repro.transport.receiver import DctcpReceiver

        _auditor, _network, handle = self._audited_flow(sim)
        sim.run(until=0.05)

        def broken_on_data(self, packet):
            self.expected_seq -= 1

        monkeypatch.setattr(DctcpReceiver, "on_data", broken_on_data)
        packet = make_data(handle.flow.flow_id, handle.flow.src,
                           handle.flow.dst, 0)
        packet.sent_time = 0.0
        with pytest.raises(InvariantViolation) as err:
            handle.receiver.host.receive(packet)
        assert err.value.counter == "receiver-cumulative-monotone"


class TestGlobalConservation:
    def test_phantom_host_receive_caught(self, sim):
        from repro.net.topology import TopologySpec
        from repro.transport.endpoints import open_flow
        from repro.transport.flow import Flow

        auditor = FabricAuditor(sim)
        network = TopologySpec("single-bottleneck", senders=1).build(
            sim, lambda: DwrrScheduler(1), NullMarker)
        auditor.attach_network(network)
        open_flow(network, Flow(src=0, dst=1, size_bytes=30_000))
        sim.run(until=0.05)
        network.hosts[1].received_packets += 3  # phantom receptions
        with pytest.raises(InvariantViolation) as err:
            auditor.verify_fabric()
        assert err.value.counter == "global-conservation"
