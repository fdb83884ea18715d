"""Threshold tests, parametrized over every scheme.

A marker's thresholds are fixed at construction.  Two contracts, one
test each, applied uniformly to all eight markers:

- a threshold mutated during a run (between a packet's enqueue and
  dequeue decisions) trips the auditor's ``marker-threshold-boundary``
  rule, which compares against the snapshot taken at ``attach_port``;
- ``Port.reset`` leaves ``thresholds()`` at the values the marker was
  attached with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.core.pmsb import PmsbMarker
from repro.ecn.base import Marker
from repro.ecn.mq_ecn import MqEcnMarker
from repro.ecn.per_port import PerPortMarker
from repro.ecn.per_queue import PerQueueMarker
from repro.ecn.phantom import PhantomQueueMarker
from repro.ecn.red import RedMarker
from repro.ecn.service_pool import ServicePoolMarker
from repro.ecn.tcn import TcnMarker
from repro.net.link import Link
from repro.net.packet import MTU_BYTES, make_data
from repro.net.port import Port
from repro.net.sharedbuf import SharedBuffer
from repro.scheduling.dwrr import DwrrScheduler
from repro.sim.audit import FabricAuditor, InvariantViolation


class Sink:
    name = "sink"

    def receive(self, packet):
        pass


@dataclass
class Case:
    """One marking scheme under the uniform threshold contract."""

    name: str
    build: Callable[[], Marker]
    #: Mutate one threshold in place (the audit offence).
    raw_mutate: Callable[[Marker], None]


CASES = [
    Case("pmsb", lambda: PmsbMarker(1000.0),
         lambda m: setattr(m, "port_threshold_packets", 5.0)),
    Case("per-port", lambda: PerPortMarker(1000.0),
         lambda m: setattr(m, "threshold_packets", 5.0)),
    Case("per-queue", lambda: PerQueueMarker(1000.0),
         lambda m: setattr(m, "_scalar", 5.0)),
    Case("mq-ecn", lambda: MqEcnMarker(rtt=1.0),
         lambda m: setattr(m, "rtt", 5.0)),
    Case("red", lambda: RedMarker(1000.0, 1000.0, max_probability=1.0,
                                  weight=1.0),
         lambda m: setattr(m, "min_threshold", 5.0)),
    Case("tcn", lambda: TcnMarker(10.0),
         lambda m: setattr(m, "sojourn_threshold", 5.0)),
    Case("phantom", lambda: PhantomQueueMarker(1e15),
         lambda m: setattr(m, "threshold_bytes", 5.0)),
    Case("service-pool", lambda: ServicePoolMarker(SharedBuffer(2000), 1000.0),
         lambda m: setattr(m, "threshold_packets", 5.0)),
]

IDS = [case.name for case in CASES]


def make_port(sim, marker):
    return Port(sim, Link(sim, 1e9, 1e-6, Sink()), DwrrScheduler(2), marker)


def send(port, n, start_seq=0):
    packets = [make_data(1, 0, 1, start_seq + i) for i in range(n)]
    for packet in packets:
        port.enqueue(packet, 0)
    return packets


@pytest.mark.parametrize("case", CASES, ids=IDS)
class TestRuntimeThresholds:
    def test_mid_packet_mutation_trips_audit(self, sim, case):
        marker = case.build()
        auditor = FabricAuditor(sim)
        port = make_port(sim, marker)
        auditor.attach_port(port)
        send(port, 1)
        case.raw_mutate(marker)
        with pytest.raises(InvariantViolation,
                           match="marker-threshold-boundary"):
            send(port, 1, start_seq=5)
            sim.run()

    def test_unchanged_thresholds_pass_audit_across_reset(self, sim, case):
        marker = case.build()
        auditor = FabricAuditor(sim)
        port = make_port(sim, marker)
        auditor.attach_port(port)
        send(port, 3)
        port.reset()
        send(port, 2, start_seq=5)
        sim.run()
        auditor.verify_fabric()

    def test_reset_does_not_re_anchor_the_snapshot(self, sim, case):
        # The snapshot is the attach-time value: a mutation survives a
        # port reset and is still reported at the next datapath event.
        marker = case.build()
        auditor = FabricAuditor(sim)
        port = make_port(sim, marker)
        auditor.attach_port(port)
        case.raw_mutate(marker)
        port.reset()
        with pytest.raises(InvariantViolation,
                           match="marker-threshold-boundary"):
            send(port, 1)
            sim.run()

    def test_port_reset_keeps_attach_time_thresholds(self, sim, case):
        marker = case.build()
        port = make_port(sim, marker)
        attached = dict(marker.thresholds())
        send(port, 3)
        sim.run(until=1e-6)
        port.reset()
        assert marker.thresholds() == attached
        send(port, 2, start_seq=10)
        sim.run()
        port.reset()
        assert marker.thresholds() == attached


def test_mq_ecn_reset_keeps_the_resolved_idle_default(sim):
    marker = MqEcnMarker(rtt=1.0)
    port = make_port(sim, marker)
    resolved = marker.t_idle
    assert resolved == MTU_BYTES * 8 / 1e9
    send(port, 2)
    port.reset()
    assert marker.thresholds() == {"rtt": 1.0, "lam": 1.0, "t_idle": resolved}
