"""Runtime-threshold surface tests, parametrized over every scheme.

Three contracts, one test each, applied uniformly to all eight markers:

- ``set_thresholds`` between packets is *lazy*: the observable values
  do not move until the next packet boundary, and the first packet
  after the boundary decides under the new values;
- a threshold mutated *without* going through the surface (raw
  ``setattr`` between a packet's enqueue and dequeue decisions) trips
  the auditor's ``marker-threshold-boundary`` rule;
- ``Port.reset`` restores the attach-time baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict

import pytest

from repro.core.pmsb import PmsbMarker
from repro.ecn.base import Marker
from repro.ecn.mq_ecn import MqEcnMarker
from repro.ecn.per_port import PerPortMarker
from repro.ecn.per_queue import PerQueueMarker
from repro.ecn.phantom import PhantomQueueMarker
from repro.ecn.red import RedMarker
from repro.ecn.service_pool import BufferPool, ServicePoolMarker
from repro.ecn.tcn import TcnMarker
from repro.net.link import Link
from repro.net.packet import MTU_BYTES, make_data
from repro.net.port import Port
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
    #: Build a marker whose construction-time thresholds never mark in
    #: the shallow-queue scenario below.
    build: Callable[[], Marker]
    #: ``set_thresholds`` kwargs that make every packet mark.
    low: Dict[str, Any]
    #: Mutate one threshold bypassing the surface (the audit offence).
    raw_mutate: Callable[[Marker], None]
    #: Decisions evaluated at dequeue (drive the sim to observe them).
    dequeue: bool = False


CASES = [
    Case(
        name="pmsb",
        build=lambda: PmsbMarker(1000.0),
        low={"port_threshold_packets": 1.0},
        raw_mutate=lambda m: setattr(m, "port_threshold_packets", 5.0),
    ),
    Case(
        name="per-port",
        build=lambda: PerPortMarker(1000.0),
        low={"threshold_packets": 0.0},
        raw_mutate=lambda m: setattr(m, "threshold_packets", 5.0),
    ),
    Case(
        name="per-queue",
        build=lambda: PerQueueMarker(1000.0),
        low={"queue_thresholds": 0.0},
        raw_mutate=lambda m: m._install(5.0),
    ),
    Case(
        name="mq-ecn",
        build=lambda: MqEcnMarker(rtt=1.0),
        low={"rtt": 1e-9},
        raw_mutate=lambda m: setattr(m, "rtt", 5.0),
    ),
    Case(
        name="red",
        build=lambda: RedMarker(1000.0, 1000.0, max_probability=1.0,
                                weight=1.0),
        low={"min_threshold": 0.0, "max_threshold": 0.0},
        raw_mutate=lambda m: setattr(m, "min_threshold", 5.0),
    ),
    Case(
        name="tcn",
        build=lambda: TcnMarker(10.0),
        low={"sojourn_threshold": 0.0},
        raw_mutate=lambda m: setattr(m, "sojourn_threshold", 5.0),
        dequeue=True,
    ),
    Case(
        name="phantom",
        build=lambda: PhantomQueueMarker(1e15),
        low={"threshold_bytes": 0.0},
        raw_mutate=lambda m: setattr(m, "threshold_bytes", 5.0),
        dequeue=True,
    ),
    Case(
        name="service-pool",
        build=lambda: ServicePoolMarker(BufferPool(), 1000.0),
        low={"threshold_packets": 0.0},
        raw_mutate=lambda m: setattr(m, "threshold_packets", 5.0),
    ),
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
    def test_change_between_packets_flips_next_decision(self, sim, case):
        marker = case.build()
        port = make_port(sim, marker)
        before = send(port, 3)
        if case.dequeue:
            sim.run()
        assert not any(p.ce for p in before), "high thresholds must not mark"

        staged_at = dict(marker.thresholds())
        epoch = marker.threshold_epoch
        marker.set_thresholds(**case.low)
        # Lazy: nothing observable moved yet.
        assert marker.thresholds() == staged_at
        assert marker.threshold_epoch == epoch

        after = send(port, 2, start_seq=10)
        if case.dequeue:
            sim.run()
        # The second packet always queues behind the first, so it sees
        # the committed thresholds whichever instant the scheme samples
        # (TCN's strict sojourn compare exempts a never-queued packet).
        assert after[-1].ce, \
            "first packets past the boundary must decide under new values"
        assert marker.threshold_epoch == epoch + 1
        for key, value in case.low.items():
            assert marker.thresholds()[key] == value

    def test_unknown_key_and_bad_value_raise_eagerly(self, sim, case):
        marker = case.build()
        make_port(sim, marker)
        with pytest.raises(ValueError, match="no tunable threshold"):
            marker.set_thresholds(not_a_threshold=1.0)
        key = next(iter(case.low))
        with pytest.raises(ValueError):
            marker.set_thresholds(**{key: -1.0})
        # A rejected stage leaves nothing pending.
        assert marker._pending_thresholds is None

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

    def test_staged_change_passes_audit(self, sim, case):
        marker = case.build()
        auditor = FabricAuditor(sim)
        port = make_port(sim, marker)
        auditor.attach_port(port)
        send(port, 1)
        marker.set_thresholds(**case.low)
        send(port, 2, start_seq=5)
        sim.run()
        auditor.verify_fabric()

    def test_port_reset_restores_baseline(self, sim, case):
        marker = case.build()
        port = make_port(sim, marker)
        baseline = dict(marker.thresholds())
        marker.set_thresholds(**case.low)
        send(port, 1)  # commit the staged change
        assert marker.thresholds() != baseline
        epoch = marker.threshold_epoch
        port.reset()
        assert marker.thresholds() == baseline
        assert marker.threshold_epoch > epoch

    def test_reset_discards_pending(self, sim, case):
        marker = case.build()
        port = make_port(sim, marker)
        baseline = dict(marker.thresholds())
        marker.set_thresholds(**case.low)  # staged, never committed
        port.reset()
        assert marker._pending_thresholds is None
        assert marker.thresholds() == baseline
        after = send(port, 1)
        if case.dequeue:
            sim.run()
        assert not after[0].ce, "discarded stage must not leak into decisions"


@pytest.mark.parametrize("case", CASES, ids=IDS)
@pytest.mark.parametrize("tunings", [0, 1, 2])
def test_reset_restores_the_attach_time_values_and_counts_epochs(
        sim, case, tunings):
    # The baseline is captured by the first staged change, not at
    # attach; observably it is still the attach-time snapshot, and every
    # reset is one boundary change whether or not the marker was tuned.
    marker = case.build()
    port = make_port(sim, marker)
    attached = dict(marker.thresholds())
    for round_no in range(tunings):
        marker.set_thresholds(**case.low)
        send(port, 1, start_seq=10 * round_no)  # commit: one epoch
        assert marker.thresholds() != attached
        port.reset()
        assert marker.thresholds() == attached
    assert marker.threshold_epoch == 2 * tunings
    port.reset()
    port.reset()
    assert marker.thresholds() == attached
    assert marker.threshold_epoch == 2 * tunings + 2


def test_mq_ecn_reset_restores_the_resolved_idle_default(sim):
    marker = MqEcnMarker(rtt=1.0)
    port = make_port(sim, marker)
    resolved = marker.t_idle
    assert resolved == MTU_BYTES * 8 / 1e9
    port.reset()
    assert (marker.t_idle, marker.threshold_epoch) == (resolved, 1)
    marker.set_thresholds(t_idle=1e-3, rtt=2.0)
    send(port, 1)
    port.reset()
    assert marker.thresholds() == {"rtt": 1.0, "lam": 1.0, "t_idle": resolved}
    assert marker.threshold_epoch == 3
