"""Differential: the specialised hop against the general hop.

A port built on ``Simulator(slow_path=True)`` runs the general hop — the
scheduler's enqueue/dequeue pair and both marker hooks for every packet.
Otherwise it runs the specialised hop: exact idle pass-through, marking
through ``Marker.hop_hooks`` and no dequeue on an empty completion (see
:mod:`repro.net.port`).  Every scheduler × marker × supported mark point
is fed the same scripted arrivals on both; the departure logs
``(time, queue, seq, ce)``, a state probe after every arrival and the
final counters of port, scheduler and marker must be equal.  They must
also be equal, and the specialised hop must still pass packets through,
when the port is observed — by the fabric auditor and a packet trace —
from the start: an observed run takes the hop an unobserved one does.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.core.pmsb import PmsbMarker
from repro.ecn.base import MarkPoint, NullMarker
from repro.ecn.mq_ecn import MqEcnMarker
from repro.ecn.per_port import PerPortMarker
from repro.ecn.per_queue import PerQueueMarker
from repro.ecn.phantom import PhantomQueueMarker
from repro.ecn.red import RedMarker
from repro.ecn.service_pool import ServicePoolMarker
from repro.ecn.tcn import TcnMarker
from repro.metrics.queue_trace import QueueOccupancyTrace
from repro.net.link import Link
from repro.net.packet import ACK_BYTES, MTU_BYTES, Packet, make_data
from repro.net.port import Port
from repro.net.sharedbuf import SharedBuffer
from repro.net.tracing import PacketTrace
from repro.scheduling.dwrr import DwrrScheduler
from repro.scheduling.fifo import FifoScheduler
from repro.scheduling.hybrid import SpWfqScheduler
from repro.scheduling.strict_priority import StrictPriorityScheduler
from repro.scheduling.wfq import WfqScheduler
from repro.scheduling.wrr import WrrScheduler
from repro.sim.audit import FabricAuditor
from repro.sim.engine import Simulator
from repro.sim.faults import DELIVER, DROP_CRC, DROP_WIRE

RATE = 10e9
TX = MTU_BYTES * 8.0 / RATE
N_QUEUES = 3
WEIGHTS = [1.0, 2.0, 0.5]

SCHEDULERS = {
    "fifo": lambda: FifoScheduler(N_QUEUES, WEIGHTS),
    "sp": lambda: StrictPriorityScheduler(N_QUEUES, weights=WEIGHTS),
    "wrr": lambda: WrrScheduler(N_QUEUES, WEIGHTS),
    "dwrr": lambda: DwrrScheduler(N_QUEUES, WEIGHTS),
    "wfq": lambda: WfqScheduler(N_QUEUES, WEIGHTS),
    "sp-wfq": lambda: SpWfqScheduler(N_QUEUES, [0, 1, 1], WEIGHTS),
}
ROUND_BASED = {"wrr", "dwrr"}
PASS_THROUGH = {"fifo", "dwrr", "wfq"}

#: name -> (factory(mark_point, pool), mark points it supports)
MARKERS = {
    "null": (lambda point, pool: NullMarker(point), MarkPoint),
    "per-port": (lambda point, pool: PerPortMarker(3, point), MarkPoint),
    "per-queue": (lambda point, pool: PerQueueMarker(2, point), MarkPoint),
    "pmsb": (lambda point, pool: PmsbMarker(3, point), MarkPoint),
    "pmsb-avg": (lambda point, pool: PmsbMarker(3, point,
                                                average_weight=0.5),
                 MarkPoint),
    "red": (lambda point, pool: RedMarker(1, 4, 0.5, 0.5, mark_point=point,
                                          seed=3), MarkPoint),
    "pool": (lambda point, pool: ServicePoolMarker(pool, 3, point),
             MarkPoint),
    "mq-ecn": (lambda point, pool: MqEcnMarker(20e-6, mark_point=point),
               MarkPoint),
    "tcn": (lambda point, pool: TcnMarker(1.5 * TX), [MarkPoint.DEQUEUE]),
    "phantom": (lambda point, pool: PhantomQueueMarker(2 * MTU_BYTES),
                [MarkPoint.DEQUEUE]),
}


def _arrivals(pattern):
    """Scripted ``(time, queue, size, ect)`` arrivals for one port."""
    if pattern == "idle-gaps":
        # Every arrival finds the port idle, some only just.
        gaps = [3 * TX, 1.01 * TX, 5 * TX, 1.5 * TX]
        out, t = [], 1e-6
        for i in range(24):
            size = ACK_BYTES if i % 5 == 4 else MTU_BYTES
            out.append((t, i % N_QUEUES, size, size == MTU_BYTES))
            t += gaps[i % len(gaps)]
        return out
    if pattern == "bursts":
        # Same-instant bursts over every queue, then idle gaps.
        out = []
        for burst in range(4):
            t = 1e-6 + burst * 20 * TX
            for i in range(6 + 2 * burst):
                out.append((t, (i + burst) % N_QUEUES, MTU_BYTES, True))
        return out
    # back-to-back: arrivals on the serialization clock (ties with
    # completions), with the rate briefly doubled so a queue builds.
    out, t = [], 1e-6
    for i in range(40):
        out.append((t, (i // 3) % N_QUEUES, MTU_BYTES, True))
        t += TX if i < 12 or i >= 24 else TX / 2
    return out


class _Sink:
    def __init__(self, sim, log):
        self.sim, self.log = sim, log

    def receive(self, packet):
        self.log.append((self.sim.now, packet.service, packet.seq,
                         packet.ce))


def _plain(value):
    """A comparable copy of scheduler / marker state (objects dropped)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Packet):
        return ("packet", value.seq)
    if isinstance(value, (list, tuple, deque)):
        return [_plain(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return type(value).__name__


def _state(obj):
    names = getattr(obj, "__dict__", {})
    return {name: _plain(value) for name, value in names.items()
            if not callable(value)}


def _port_state(port):
    state = {name: _plain(getattr(port, name)) for name in (
        "busy", "_packet_count", "_byte_count", "_queue_packets",
        "_queue_bytes", "drops", "queue_drops", "tx_packets", "tx_bytes",
        "last_departure", "_in_service")}
    state["link"] = (port.link.packets_delivered, port.link.loss_breakdown)
    return state


def run(slow, scheduler, marker, point, pattern, actions=(), observed=False):
    """Run one scripted port; ``actions`` are ``(time, fn(sim, port))``.

    ``observed``: an auditor and a packet trace observe the port from
    the start; the trace's events are returned last (else None).
    """
    sim = Simulator(slow_path=slow)
    log, probes = [], []
    pool = SharedBuffer(10)
    factory, _points = MARKERS[marker]
    link = Link(sim, RATE, 1e-6, _Sink(sim, log))
    port = Port(sim, link, SCHEDULERS[scheduler](), factory(point, pool),
                buffer_packets=8,
                pool=pool.port_account("port", link) if marker == "pool"
                else None)
    passed = []
    pass_through = port.scheduler.pass_through

    def counted(queue_index, packet):
        served = pass_through(queue_index, packet)
        passed.append(served)
        return served

    port.scheduler.pass_through = counted
    trace = None
    if observed:
        FabricAuditor(sim).attach_port(port)
        trace = PacketTrace([port])

    def arrive(seq, queue, size, ect):
        port.enqueue(make_data(1, 0, 1, seq, size, queue, ect), queue)

    def probe():
        probes.append((sim.now, _port_state(port), _state(port.scheduler),
                       _state(port.marker)))

    for seq, (time, queue, size, ect) in enumerate(_arrivals(pattern)):
        sim.at(time, arrive, seq, queue, size, ect)
        sim.at(time, probe)
    for time, action in actions:
        sim.at(time, action, sim, port)
    sim.run()
    probe()
    return (log, probes, sim.events_processed, sum(passed),
            trace.events if observed else None)


def combos():
    for scheduler in SCHEDULERS:
        for marker, (_factory, points) in MARKERS.items():
            if marker == "mq-ecn" and scheduler not in ROUND_BASED:
                continue
            for point in points:
                yield scheduler, marker, point


COMBOS = list(combos())
IDS = [f"{s}-{m}-{p.value}" for s, m, p in COMBOS]


def assert_same(scheduler, marker, point, pattern, actions=(),
                observed=False):
    general = run(True, scheduler, marker, point, pattern, actions, observed)
    specialised = run(False, scheduler, marker, point, pattern, actions,
                      observed)
    assert specialised[0] == general[0]  # departures
    assert specialised[1] == general[1]  # state after every arrival
    assert specialised[2] == general[2]  # events
    assert specialised[4] == general[4]  # the packet trace
    assert general[3] == 0
    return specialised


@pytest.mark.parametrize("pattern", ["idle-gaps", "bursts", "back-to-back"])
@pytest.mark.parametrize("scheduler,marker,point", COMBOS, ids=IDS)
def test_specialised_hop_matches_general(scheduler, marker, point, pattern):
    log, _probes, _events, passed, _trace = assert_same(
        scheduler, marker, point, pattern)
    assert log  # something crossed the port
    if pattern == "idle-gaps" and scheduler in PASS_THROUGH:
        assert passed  # … and some of it straight through


@pytest.mark.parametrize("scheduler,marker,point", COMBOS, ids=IDS)
def test_observed_hop_matches_general(scheduler, marker, point):
    log, _probes, _events, passed, trace = assert_same(
        scheduler, marker, point, "idle-gaps", observed=True)
    assert log and len(trace) >= 2 * len(log)
    if scheduler in PASS_THROUGH:
        assert passed  # observation left the port on pass-through


def _reset(sim, port):
    assert port.busy
    port.reset()


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("marker", ["pmsb", "null", "tcn"])
def test_reset_during_a_transmission(scheduler, marker):
    point = list(MARKERS[marker][1])[-1]
    # Mid-way through a pass-through transmission and mid-backlog.
    actions = [(1e-6 + 0.5 * TX, _reset), (1e-6 + 20.4 * TX, _reset)]
    assert_same(scheduler, marker, point, "bursts", actions)


def _attach_auditor(sim, port):
    FabricAuditor(sim).attach_port(port)


def _attach_trace(sim, port):
    QueueOccupancyTrace(port)  # kept alive by the port it observes


@pytest.mark.parametrize("attach", [_attach_auditor, _attach_trace],
                         ids=["auditor", "queue-trace"])
@pytest.mark.parametrize("scheduler", ["fifo", "dwrr", "wfq"])
def test_observer_attached_after_the_build(attach, scheduler):
    # Attached while a packet is on the wire: the auditor must find the
    # in-service record and the scheduler consistent from then on.
    actions = [(1e-6 + 0.25 * TX, attach)]
    for pattern in ("idle-gaps", "bursts"):
        assert_same(scheduler, "pmsb", MarkPoint.ENQUEUE, pattern, actions)


class _EveryThirdLost:
    """A loss model: wire loss, CRC loss, delivery, in turn."""

    def __init__(self):
        self.verdicts = [DROP_WIRE, DROP_CRC, DELIVER] * 1000

    def classify(self):
        return self.verdicts.pop()


def _flap_and_lose(sim, port):
    link = port.link
    link.set_down()
    sim.at(sim.now + 3.3 * TX, link.set_up)
    sim.at(sim.now + 9.7 * TX, setattr, link, "fault", _EveryThirdLost())
    sim.at(sim.now + 21.1 * TX, setattr, link, "fault", None)


@pytest.mark.parametrize("scheduler", ["fifo", "dwrr", "wfq"])
def test_a_failing_link_drops_the_same_packets(scheduler):
    # The specialised completion hands the packet to the wire itself
    # only while the link is up and loss-free.
    actions = [(1e-6 + 2.5 * TX, _flap_and_lose)]
    for pattern in ("idle-gaps", "back-to-back"):
        assert_same(scheduler, "pmsb", MarkPoint.ENQUEUE, pattern, actions)


class TestPassThroughContract:
    def _history(self, scheduler):
        for seq in range(5):
            scheduler.enqueue(seq % N_QUEUES,
                              make_data(1, 0, 1, seq, service=seq % 3))
        while scheduler.dequeue() is not None:
            pass
        return scheduler

    def test_dwrr_declines_a_packet_bigger_than_its_quantum(self):
        scheduler = self._history(DwrrScheduler(N_QUEUES, WEIGHTS))
        before = _state(scheduler)
        # Weight 0.5: a 750-byte quantum, so an MTU needs two visits
        # (and a round boundary) — not a closed form.
        assert scheduler.quantum[2] == MTU_BYTES / 2
        assert not scheduler.pass_through(2, make_data(1, 0, 1, 9))
        assert _state(scheduler) == before
        assert scheduler.pass_through(2, make_data(1, 0, 1, 9,
                                                   size=ACK_BYTES))

    @pytest.mark.parametrize("factory", [
        lambda: FifoScheduler(N_QUEUES, WEIGHTS),
        lambda: DwrrScheduler(N_QUEUES, WEIGHTS),
        lambda: WfqScheduler(N_QUEUES, WEIGHTS),
    ], ids=["fifo", "dwrr", "wfq"])
    def test_pass_through_is_the_pair(self, factory):
        paired = self._history(factory())
        passed = self._history(factory())
        packet = make_data(1, 0, 1, 9, service=1)
        paired.enqueue(1, packet)
        assert paired.dequeue() == (1, packet)
        assert passed.pass_through(1, packet)
        assert _state(passed) == _state(paired)

    def test_wfq_virtual_time_carries_across_an_idle_gap(self):
        scheduler = self._history(WfqScheduler(N_QUEUES, WEIGHTS))
        finish = list(scheduler._finish_tag)
        # Queue 0 finished ahead of the virtual time the idle scheduler
        # kept, so an idle arrival starts at its finish tag, not at zero
        # nor at the virtual time.
        assert finish[0] > scheduler.virtual_time > 0
        assert scheduler.pass_through(0, make_data(1, 0, 1, 9))
        assert scheduler.virtual_time == finish[0]
        assert scheduler._finish_tag[0] == finish[0] + MTU_BYTES / WEIGHTS[0]

    @pytest.mark.parametrize("factory", [
        lambda: StrictPriorityScheduler(N_QUEUES),
        lambda: WrrScheduler(N_QUEUES),
        lambda: SpWfqScheduler(N_QUEUES, [0, 1, 1]),
    ], ids=["sp", "wrr", "sp-wfq"])
    def test_other_schedulers_decline(self, factory):
        assert not factory().pass_through(0, make_data(1, 0, 1, 0))


def test_mq_ecn_idle_reset_on_a_pass_through_arrival():
    # A backlog teaches MQ-ECN a round time; an arrival after more than
    # T_idle of silence passes straight through and must still reset it.
    probes = {}
    for slow in (True, False):
        probes[slow] = run(slow, "dwrr", "mq-ecn", MarkPoint.ENQUEUE,
                           "bursts")[1]
    assert probes[False] == probes[True]
    t_rounds = [marker["_t_round"] for _t, _port, _sched, marker
                in probes[False]]
    assert any(t_rounds) and 0.0 in t_rounds[1:]


def test_slow_path_binds_the_general_hop():
    sim = Simulator(slow_path=True)
    port = Port(sim, Link(sim, RATE, 0.0, _Sink(sim, [])),
                DwrrScheduler(2), PmsbMarker(3))
    assert port._general and not port._idle_pass
    assert port._marker_on_enqueue == port.marker.on_enqueue
    fast = Port(Simulator(slow_path=False),
                Link(sim, RATE, 0.0, _Sink(sim, [])), DwrrScheduler(2),
                PmsbMarker(3))
    assert not fast._general and fast._idle_pass
    assert fast._marker_on_enqueue == fast.marker.mark_enqueue


#: A 7-packet port threshold over weights 1 : 2 : 0.5 gives queue
#: thresholds of exactly 2, 4 and 1 packets (Eq. 6).
INTEGRAL_PMSB = (lambda point, pool: PmsbMarker(7, point), MarkPoint)


@pytest.mark.parametrize("scheduler", ["fifo", "dwrr", "wfq"])
def test_queue_exactly_on_an_integral_pmsb_threshold(scheduler, monkeypatch):
    # The FCT points' queue thresholds (12 x 1/8 = 1.5 packets) are never
    # integral, so only here does a queue sit exactly on one when a
    # packet arrives past the port threshold: the general hop's
    # ``decide`` must mark it (``>=``), as the specialised hop does.
    monkeypatch.setitem(MARKERS, "pmsb-integral", INTEGRAL_PMSB)
    on_threshold = []
    decide = PmsbMarker.decide

    def recording(self, port, queue_index, packet):
        if (port.packet_count >= self.port_threshold_packets
                and port.queue_packet_count(queue_index)
                == self.queue_threshold(port, queue_index)):
            on_threshold.append(queue_index)
        return decide(self, port, queue_index, packet)

    monkeypatch.setattr(PmsbMarker, "decide", recording)
    for pattern in ("bursts", "back-to-back"):
        assert_same(scheduler, "pmsb-integral", MarkPoint.ENQUEUE, pattern)
    assert on_threshold
