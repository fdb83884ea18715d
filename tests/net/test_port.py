"""Unit tests for the output port: accounting, drops, marking hooks."""

from __future__ import annotations

import math

import pytest

from repro.ecn.base import Marker, MarkPoint
from repro.sim.audit import FabricAuditor
from repro.metrics.throughput import ThroughputMeter
from repro.sim.engine import Simulator
from repro.net.link import Link
from repro.net.packet import make_data
from repro.net.port import Port
from repro.net.sharedbuf import DynamicThresholdPolicy, SharedBuffer
from repro.scheduling.dwrr import DwrrScheduler
from repro.scheduling.fifo import FifoScheduler
from repro.scheduling.hybrid import SpWfqScheduler
from repro.scheduling.wfq import WfqScheduler
from tests.pooling import pooled_port


class Sink:
    name = "sink"

    def __init__(self):
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def make_port(sim, n_queues=1, marker=None, buffer_packets=None,
              bandwidth=1e9, delay=1e-6, scheduler=None):
    sink = Sink()
    link = Link(sim, bandwidth, delay, sink)
    if scheduler is None:
        scheduler = FifoScheduler(n_queues)
    port = Port(sim, link, scheduler, marker,
                buffer_packets=buffer_packets)
    return port, sink


SCHEDULERS = {
    "fifo": lambda: FifoScheduler(1),
    "dwrr": lambda: DwrrScheduler(3, weights=[2, 1, 1]),
    "wfq": lambda: WfqScheduler(3, weights=[2, 1, 1]),
    "spwfq": lambda: SpWfqScheduler(3, priorities=[1, 0, 0]),
}


def scheduler_state(scheduler):
    """Everything a scheduler holds except who is listening to it."""
    return {name: value for name, value in vars(scheduler).items()
            if not name.endswith("_observer")}


class TestAccounting:
    def test_starts_empty(self, sim):
        port, _sink = make_port(sim)
        assert port.packet_count == 0
        assert port.byte_count == 0
        assert not port.busy

    def test_enqueue_counts_packets_and_bytes(self, sim):
        port, _sink = make_port(sim, n_queues=2)
        port.enqueue(make_data(1, 0, 1, 0, size=1000), 0)
        port.enqueue(make_data(1, 0, 1, 1, size=500), 1)
        assert port.packet_count == 2
        assert port.byte_count == 1500
        assert port.queue_packet_count(0) == 1
        assert port.queue_byte_count(1) == 500

    def test_packet_occupies_buffer_until_fully_serialized(self, sim):
        # Store-and-forward: occupancy drops only at transmission end.
        port, _sink = make_port(sim, bandwidth=1e9)
        packet = make_data(1, 0, 1, 0, size=1500)
        port.enqueue(packet, 0)
        tx_time = 1500 * 8 / 1e9
        sim.run(until=tx_time * 0.9)
        assert port.packet_count == 1  # still serializing
        sim.run(until=tx_time * 1.1)
        assert port.packet_count == 0

    def test_delivery_after_tx_plus_propagation(self, sim):
        port, sink = make_port(sim, bandwidth=1e9, delay=5e-6)
        port.enqueue(make_data(1, 0, 1, 0, size=1500), 0)
        total = 1500 * 8 / 1e9 + 5e-6
        sim.run(until=total * 0.99)
        assert sink.received == []
        sim.run(until=total * 1.01)
        assert len(sink.received) == 1

    def test_back_to_back_serialization(self, sim):
        port, sink = make_port(sim, bandwidth=1e9, delay=0.0)
        for seq in range(3):
            port.enqueue(make_data(1, 0, 1, seq, size=1500), 0)
        tx_time = 1500 * 8 / 1e9
        sim.run()
        assert len(sink.received) == 3
        assert sim.now == pytest.approx(3 * tx_time)

    def test_tx_counters(self, sim):
        port, _sink = make_port(sim)
        # Per-queue departures are a meter's to count, not the port's.
        meter = ThroughputMeter(sim)
        port.observe(meter)
        port.enqueue(make_data(1, 0, 1, 0, size=1000), 0)
        sim.run()
        assert port.tx_packets == 1
        assert port.tx_bytes == 1000
        assert meter.total_bytes(0) == 1000


class TestDropTail:
    def test_drops_when_full(self, sim):
        port, _sink = make_port(sim, buffer_packets=2)
        admitted = [port.enqueue(make_data(1, 0, 1, s), 0) for s in range(3)]
        assert admitted == [True, True, False]
        assert port.drops == 1
        assert port.queue_drops[0] == 1

    def test_unbounded_buffer_never_drops(self, sim):
        port, _sink = make_port(sim)
        for seq in range(100):
            assert port.enqueue(make_data(1, 0, 1, seq), 0)
        assert port.drops == 0

    def test_space_freed_after_serialization(self, sim):
        port, _sink = make_port(sim, buffer_packets=1, bandwidth=1e9)
        assert port.enqueue(make_data(1, 0, 1, 0), 0)
        assert not port.enqueue(make_data(1, 0, 1, 1), 0)
        sim.run()  # first packet leaves
        assert port.enqueue(make_data(1, 0, 1, 2), 0)


class RecordingMarker(Marker):
    """Captures the occupancy the marker saw at each hook."""

    def __init__(self, mark_point=MarkPoint.ENQUEUE, decision=False):
        super().__init__(mark_point)
        self.decision = decision
        self.seen = []

    def decide(self, port, queue_index, packet):
        self.seen.append((self.mark_point.value, port.packet_count))
        return self.decision


class TestMarkingHooks:
    def test_enqueue_marker_sees_occupancy_including_packet(self, sim):
        marker = RecordingMarker(MarkPoint.ENQUEUE)
        port, _sink = make_port(sim, marker=marker)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        assert marker.seen == [("enqueue", 1)]

    def test_dequeue_marker_sees_occupancy_including_packet(self, sim):
        marker = RecordingMarker(MarkPoint.DEQUEUE)
        port, _sink = make_port(sim, marker=marker)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        assert marker.seen == [("dequeue", 1)]

    def test_marking_sets_ce(self, sim):
        marker = RecordingMarker(MarkPoint.ENQUEUE, decision=True)
        port, sink = make_port(sim, marker=marker)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        sim.run()
        assert sink.received[0].ce is True
        assert marker.packets_marked == 1

    def test_non_ect_packets_never_marked(self, sim):
        marker = RecordingMarker(MarkPoint.ENQUEUE, decision=True)
        port, sink = make_port(sim, marker=marker)
        port.enqueue(make_data(1, 0, 1, 0, ect=False), 0)
        sim.run()
        assert sink.received[0].ce is False
        assert marker.packets_seen == 0

    def test_enqueue_timestamp_is_set(self, sim):
        port, _sink = make_port(sim)
        packet = make_data(1, 0, 1, 0)
        sim.at(0.5, port.enqueue, packet, 0)
        sim.run()
        assert packet.enqueue_time == 0.5


class Recorder:
    """A port observer that logs every call it gets."""

    def __init__(self):
        self.calls = []

    def admitted(self, port, queue_index, packet):
        self.calls.append(("admitted", port.sim.now, queue_index, packet.seq,
                           port.packet_count, port.busy,
                           port.scheduler.queue_len(queue_index)))

    def departed(self, port, queue_index, packet):
        self.calls.append(("departed", port.sim.now, queue_index, packet.seq))

    def dropped(self, port, queue_index, packet):
        self.calls.append(("dropped", queue_index, packet.seq))

    def port_reset(self, port):
        self.calls.append(("port_reset", port.packet_count))


class TestListeners:
    def test_dequeue_listener_fires_at_wire_completion(self, sim):
        port, _sink = make_port(sim, bandwidth=1e9)
        recorder = Recorder()
        port.observe(recorder)
        port.enqueue(make_data(1, 0, 1, 7), 0)
        sim.run()
        departed = [c for c in recorder.calls if c[0] == "departed"]
        assert len(departed) == 1
        assert departed[0][1] == pytest.approx(1500 * 8 / 1e9)
        assert departed[0][2:] == (0, 7)

    def test_enqueue_listener(self, sim):
        port, _sink = make_port(sim)
        recorder = Recorder()
        port.observe(recorder)
        port.enqueue(make_data(1, 0, 1, 3), 0)
        assert [c[3] for c in recorder.calls if c[0] == "admitted"] == [3]

    def test_observed_idle_port_still_passes_through(self, sim):
        # The observer sees the packet counted, not yet busy, and out of
        # the scheduler already: it is the in-service packet.
        port, _sink = make_port(sim)
        recorder = Recorder()
        port.observe(recorder)
        port.enqueue(make_data(1, 0, 1, 3), 0)
        assert recorder.calls == [("admitted", 0.0, 0, 3, 1, False, 0)]
        assert port.busy and port._in_service == 0

    def test_only_the_defined_methods_are_bound(self, sim):
        port, _sink = make_port(sim)
        meter = ThroughputMeter(sim)
        port.observe(meter)
        assert port._departed == (meter.departed,)
        assert port._admitted == port._dropped == port._reset_hooks == ()

    def test_drop_and_reset_reach_the_observer(self, sim):
        port, _sink = make_port(sim, buffer_packets=1)
        recorder = Recorder()
        port.observe(recorder)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        port.enqueue(make_data(1, 0, 1, 1), 0)
        sim.clear()
        port.reset()
        assert recorder.calls[1:] == [("dropped", 0, 1), ("port_reset", 0)]

    def test_unobserve(self, sim):
        port, _sink = make_port(sim)
        recorder, other = Recorder(), Recorder()
        port.observe(recorder)
        port.observe(other)
        port.unobserve(recorder)
        port.unobserve(recorder)  # no longer observing: a no-op
        assert port.observers == (other,)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        sim.run()
        assert recorder.calls == [] and len(other.calls) == 2


class TestPoolIntegration:
    def test_pool_accounting(self, sim):
        pool = SharedBuffer(100)
        port, _sink = pooled_port(sim, pool)
        port.enqueue(make_data(1, 0, 1, 0, size=1000), 0)
        assert pool.packet_count == 1
        assert pool.byte_count == 1000
        sim.run()
        assert pool.packet_count == 0
        assert pool.byte_count == 0

    def test_full_pool_rejects(self, sim):
        pool = SharedBuffer(1)
        port_a, _ = pooled_port(sim, pool, "a")
        port_b, _ = pooled_port(sim, pool, "b")
        assert port_a.enqueue(make_data(1, 0, 1, 0), 0)
        assert not port_b.enqueue(make_data(2, 0, 1, 0), 0)
        assert port_b.drops == 1


class TestReset:
    """Regression: ``Simulator.clear()`` used to wedge a busy port.

    ``clear()`` drops the pending transmission completion, so a port
    that was mid-transmission stayed ``busy`` forever and never sent
    another packet.  ``Port.reset()`` is the matching reset hook.
    """

    def test_clear_without_reset_wedges_port(self, sim):
        port, sink = make_port(sim)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        sim.run(until=1e-6)  # mid-serialization: port is busy
        assert port.busy
        sim.clear()
        # Without reset the port believes it is still transmitting and
        # silently queues forever (the seed-code wedge).
        port.enqueue(make_data(1, 0, 1, 1), 0)
        sim.run()
        assert sink.received == []

    def test_reset_unwedges_port_after_clear(self, sim):
        port, sink = make_port(sim)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        sim.run(until=1e-6)
        assert port.busy
        sim.clear()
        port.reset()
        assert not port.busy
        assert port.packet_count == 0
        assert port.byte_count == 0
        port.enqueue(make_data(1, 0, 1, 1), 0)
        sim.run()
        assert [packet.seq for packet in sink.received] == [1]

    def test_last_departure_anchored_at_construction(self, sim):
        # Regression: ports built mid-run used to anchor at t=0, so
        # idle-gap logic (MQ-ECN's T_idle) saw an idle period predating
        # the port itself.
        sim.run(until=2e-3)
        port, _sink = make_port(sim)
        assert port.last_departure == sim.now

    @pytest.mark.parametrize("kind", sorted(SCHEDULERS))
    def test_reset_mid_burst_under_audit(self, sim, kind):
        # Regression: reset used to bypass the pool's ``credit`` and
        # mutate its counters directly — the negative-accounting guard
        # could never catch a double credit, and the shared totals
        # never saw the bulk return.  Reset now routes through credit();
        # the auditor proves the ledgers stay balanced either side.
        def burst(port):
            for seq in range(10):
                port.enqueue(make_data(1, 0, 1, seq, size=500 + 100 * seq),
                             seq % port.n_queues)

        auditor = FabricAuditor(sim)
        pool = SharedBuffer(100, DynamicThresholdPolicy(8.0))
        port, sink = pooled_port(sim, pool, scheduler=SCHEDULERS[kind]())
        auditor.attach_port(port)
        burst(port)
        sim.run(until=1e-6)  # mid-burst: port busy, buffer occupied
        assert port.busy
        assert pool.packet_count > 0
        sim.clear()
        port.reset()
        assert pool.packet_count == 0
        assert pool.byte_count == 0
        # Queue storage, tags, deficits: all as freshly constructed.
        assert scheduler_state(port.scheduler) == scheduler_state(
            SCHEDULERS[kind]())
        port.reset()  # nothing left: must not credit a second time
        assert pool.packet_count == 0
        burst(port)
        sim.run()
        fresh_sim = Simulator()
        fresh, fresh_sink = make_port(fresh_sim, scheduler=SCHEDULERS[kind]())
        burst(fresh)
        fresh_sim.run()
        assert ([packet.seq for packet in sink.received]
                == [packet.seq for packet in fresh_sink.received])
        assert len(sink.received) == 10
        auditor.verify_fabric()

    def test_reset_credits_shared_pool(self, sim):
        pool = SharedBuffer(10)
        port, _sink = pooled_port(sim, pool, scheduler=FifoScheduler(2))
        port.enqueue(make_data(1, 0, 1, 0, service=0), 0)
        port.enqueue(make_data(2, 0, 1, 0, service=1), 1)
        assert pool.packet_count == 2
        port.reset()
        assert pool.packet_count == 0
        assert port.queue_packet_count(0) == 0
        assert port.queue_packet_count(1) == 0

    def test_reset_preserves_cumulative_stats(self, sim):
        port, _sink = make_port(sim)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        sim.run()
        assert port.tx_packets == 1
        port.reset()
        assert port.tx_packets == 1

    def test_reset_on_idle_port_is_harmless(self, sim):
        port, sink = make_port(sim)
        port.reset()
        port.enqueue(make_data(1, 0, 1, 0), 0)
        sim.run()
        assert len(sink.received) == 1

    def test_reset_reanchors_last_departure(self, sim):
        # Regression: reset used to leave ``last_departure`` pointing at
        # the pre-reset epoch, so idle-gap logic (MQ-ECN's T_idle check)
        # compared against a departure from a different traffic epoch.
        port, _sink = make_port(sim)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        sim.run()
        departed = port.last_departure
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.now > departed
        port.reset()
        assert port.last_departure == sim.now
        assert port.last_departure != departed

    def test_reset_calls_marker_on_reset(self, sim):
        class ResetRecorder(Marker):
            def __init__(self):
                super().__init__(MarkPoint.ENQUEUE)
                self.resets = []

            def decide(self, port, queue_index, packet):
                return False

            def on_reset(self, port):
                self.resets.append(port)

        marker = ResetRecorder()
        port, _sink = make_port(sim, marker=marker)
        port.reset()
        assert marker.resets == [port]


class TestResetClearsMarkerState:
    """Regression: marker per-epoch state used to survive ``reset()``.

    An MQ-ECN marker carried its smoothed ``T_round`` (and the pending
    round-start timestamp) across a sweep's reset boundary, so the first
    packets of the next iteration were judged against the previous
    iteration's round time instead of the permissive cold-start
    threshold.
    """

    def _mq_ecn_port(self, sim):
        from repro.ecn.mq_ecn import MqEcnMarker
        from repro.scheduling.dwrr import DwrrScheduler

        marker = MqEcnMarker(rtt=50e-6)
        link = Link(sim, 1e9, 1e-6, Sink())
        port = Port(sim, link, DwrrScheduler(2), marker)
        return port, marker

    def test_reset_zeroes_round_estimate(self, sim):
        port, marker = self._mq_ecn_port(sim)
        for seq in range(8):
            port.enqueue(make_data(1, 0, 1, seq, service=seq % 2), seq % 2)
        sim.run()
        assert marker.t_round > 0.0
        assert marker._last_round_start is not None
        port.reset()
        assert marker.t_round == 0.0
        assert marker._last_round_start is None

    def test_phantom_marker_state_cleared(self, sim):
        from repro.ecn.phantom import PhantomQueueMarker

        marker = PhantomQueueMarker(10 * 1500, drain_factor=0.9)
        link = Link(sim, 1e9, 1e-6, Sink())
        port = Port(sim, link, FifoScheduler(1), marker)
        for seq in range(8):
            port.enqueue(make_data(1, 0, 1, seq), 0)
        sim.run(until=5e-6)
        assert marker._phantom_bytes > 0.0
        port.reset()
        assert marker._phantom_bytes == 0.0
        assert marker._last_update == sim.now


class TestMarkerPortThreshold:
    """The port-level marking onset: the smallest port occupancy at
    which a back-to-back burst into any one queue draws its first CE
    mark — NaN when the marker never marks."""

    @staticmethod
    def threshold(sim, make_marker, n_queues=2, limit=64):
        onsets = []
        for queue_index in range(n_queues):
            port, _sink = make_port(sim, n_queues=n_queues,
                                    marker=make_marker())
            for seq in range(limit):
                packet = make_data(1, 0, 1, seq, service=queue_index)
                port.enqueue(packet, queue_index)
                if packet.ce:
                    onsets.append(float(port.packet_count))
                    break
        return min(onsets, default=math.nan)

    def test_per_port(self, sim):
        from repro.ecn.per_port import PerPortMarker

        assert self.threshold(sim, lambda: PerPortMarker(16.0)) == 16.0

    def test_pmsb(self, sim):
        from repro.core.pmsb import PmsbMarker

        assert self.threshold(sim, lambda: PmsbMarker(12.0)) == 12.0

    def test_per_queue_takes_minimum(self, sim):
        from repro.ecn.per_queue import PerQueueMarker

        assert self.threshold(
            sim, lambda: PerQueueMarker([8.0, 4.0])) == 4.0

    def test_null_marker_is_nan(self, sim):
        from repro.ecn.base import NullMarker

        assert math.isnan(self.threshold(sim, NullMarker))
