"""Retransmission and RTO under injected loss.

The chaos layer exists to stress exactly this machinery: every test
here runs a transport across a lossy or flapping bottleneck with the
fabric auditor attached, so the sender invariants (``snd_una``
monotone, ``snd_una <= next_seq``) are checked on every event of the
lossy episode, and conservation must account for every injected drop.
"""

from __future__ import annotations

import pytest

from repro.ecn.base import NullMarker
from repro.ecn.per_port import PerPortMarker
from repro.net.topology import TopologySpec
from repro.scheduling.fifo import FifoScheduler
from repro.sim.audit import FabricAuditor
from repro.sim.engine import Simulator
from repro.sim.faults import FaultScheduler, FaultSpec
from repro.transport.base import DctcpConfig
from repro.transport.dcqcn import open_dcqcn_flow
from repro.transport.endpoints import open_flow
from repro.transport.flow import Flow

pytestmark = pytest.mark.slow


def _lossy_bottleneck(spec, n_senders=1, marker=NullMarker, seed=3):
    sim = Simulator()
    auditor = FabricAuditor(sim)
    net = TopologySpec("single-bottleneck", senders=n_senders).build(
        sim, lambda: FifoScheduler(1), marker)
    auditor.attach_network(net)
    chaos = FaultScheduler(sim, [spec], seed=seed)
    chaos.apply(net)
    return sim, net, auditor, chaos


class TestDctcpRecovery:
    @pytest.mark.parametrize("spec", [
        FaultSpec(model="iid-loss", rate=0.02, links="bottleneck"),
        FaultSpec(model="gilbert-elliott", links="bottleneck",
                  p=0.005, r=0.1, h=0.8),
        FaultSpec(model="crc-corrupt", rate=0.02, links="bottleneck"),
    ], ids=["iid", "gilbert-elliott", "crc"])
    def test_flow_completes_under_loss(self, spec):
        sim, net, auditor, chaos = _lossy_bottleneck(spec)
        done = []
        handle = open_flow(
            net, Flow(src=0, dst=1, size_bytes=300_000),
            DctcpConfig(min_rto=2e-3),
            on_complete=lambda f, fct, s: done.append(fct),
        )
        sim.run(until=1.0)
        assert len(done) == 1
        assert chaos.stats()["drops"]  # loss actually happened
        sender = handle.sender
        assert sender.snd_una == sender.total_packets
        assert sender.snd_una <= sender.next_seq
        assert handle.receiver.expected_seq == handle.flow.size_packets
        auditor.verify_fabric()

    def test_flapped_link_does_not_wedge_sender(self):
        # Two full down/up cycles through the chaos layer; the sender
        # must RTO through both blackouts and still finish.
        spec = FaultSpec(model="flap", links="bottleneck",
                         down=0.2e-3, up=1.2e-3, period=4e-3, stop=8e-3)
        sim, net, auditor, chaos = _lossy_bottleneck(spec)
        done = []
        handle = open_flow(
            net, Flow(src=0, dst=1, size_bytes=300_000),
            DctcpConfig(min_rto=2e-3),
            on_complete=lambda f, fct, s: done.append(fct),
        )
        sim.run(until=1.0)
        assert chaos.flaps_scheduled == 2
        assert len(done) == 1
        assert handle.sender.timeouts >= 1
        drops = chaos.stats()["drops"]
        assert drops.get("down", 0) + drops.get("flight", 0) > 0
        auditor.verify_fabric()

    def test_loss_with_ecn_marking_in_play(self):
        # Loss and congestion marking interact: several competing flows
        # through a marking bottleneck, all of them lossy.  Everything
        # must still complete with the invariants intact.
        spec = FaultSpec(model="iid-loss", rate=0.01, links="bottleneck")
        sim, net, auditor, chaos = _lossy_bottleneck(
            spec, n_senders=4, marker=lambda: PerPortMarker(16.0))
        done = []
        handles = [
            open_flow(net, Flow(src=i, dst=4, size_bytes=150_000),
                      DctcpConfig(min_rto=2e-3),
                      on_complete=lambda f, fct, s: done.append(f.flow_id))
            for i in range(4)
        ]
        sim.run(until=1.0)
        assert len(done) == 4
        for handle in handles:
            assert handle.sender.snd_una == handle.sender.total_packets
        auditor.verify_fabric()


class TestDcqcnRecovery:
    def test_go_back_n_recovers_from_lossy_episode(self):
        # DCQCN has no RTO — recovery is NACK-driven, so a lost tail
        # with nothing behind it would never be re-requested.  Confine
        # the loss to an early window (the realistic "lossy episode")
        # and require full go-back-N recovery after it.
        spec = FaultSpec(model="iid-loss", rate=0.05, links="bottleneck",
                         stop=2e-3)
        sim, net, auditor, chaos = _lossy_bottleneck(spec)
        done = []
        sender, receiver = open_dcqcn_flow(
            net, Flow(src=0, dst=1, size_bytes=600_000),
            on_complete=lambda f, fct, s: done.append(fct),
        )
        sim.run(until=1.0)
        assert sum(chaos.stats()["drops"].values()) > 0
        assert sender.nacks_received > 0  # go-back-N actually exercised
        assert len(done) == 1
        assert receiver.expected_seq == sender.total_packets
        auditor.verify_fabric()
