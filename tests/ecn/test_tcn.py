"""Unit tests for the TCN baseline."""

from __future__ import annotations

import math

import pytest

from repro.ecn.base import MarkPoint
from repro.ecn.tcn import TcnMarker
from repro.net.link import Link
from repro.net.packet import make_data
from repro.net.port import Port
from repro.scheduling.fifo import FifoScheduler
from repro.scheduling.wfq import WfqScheduler
from repro.sim.engine import Simulator


class Sink:
    name = "sink"

    def __init__(self):
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


RATE = 1e9
TX = 1500 * 8 / RATE


class TestTcn:
    def test_constructor_pins_dequeue(self):
        marker = TcnMarker(10e-6)
        assert marker.mark_point is MarkPoint.DEQUEUE
        assert MarkPoint.ENQUEUE not in marker.supported_points

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            TcnMarker(-1e-6)

    def test_short_sojourn_not_marked(self, sim):
        sink = Sink()
        port = Port(sim, Link(sim, RATE, 1e-6, sink), FifoScheduler(1),
                    TcnMarker(sojourn_threshold=5 * TX))
        port.enqueue(make_data(1, 0, 1, 0), 0)
        sim.run()
        assert sink.received[0].ce is False

    def test_long_sojourn_marked(self, sim):
        sink = Sink()
        port = Port(sim, Link(sim, RATE, 1e-6, sink), FifoScheduler(1),
                    TcnMarker(sojourn_threshold=2.5 * TX))
        for seq in range(6):
            port.enqueue(make_data(1, 0, 1, seq), 0)
        sim.run()
        # Packets 0-2 dequeue within 2.5 transmission times; later ones
        # waited longer and must carry CE.
        ce_flags = [p.ce for p in sorted(sink.received, key=lambda p: p.seq)]
        assert ce_flags[:3] == [False, False, False]
        assert all(ce_flags[3:])

    def test_works_over_generic_scheduler(self, sim):
        # TCN's selling point: no round concept needed.
        sink = Sink()
        port = Port(sim, Link(sim, RATE, 1e-6, sink), WfqScheduler(2),
                    TcnMarker(sojourn_threshold=0.0))
        port.enqueue(make_data(1, 0, 1, 0), 0)
        port.enqueue(make_data(2, 0, 1, 0), 1)
        sim.run()
        # Threshold zero: the second packet surely waited > 0.
        assert any(p.ce for p in sink.received)

    @pytest.mark.parametrize("slow_path", [False, True])
    @pytest.mark.parametrize("threshold,marked", [
        (TX, False),                        # sojourn == threshold
        (math.nextafter(TX, 0.0), True),    # one ulp below it
    ])
    def test_threshold_is_strict(self, slow_path, threshold, marked):
        # Two back-to-back MTUs: the second waits exactly one
        # transmission time, so its sojourn equals TX bit for bit and
        # only a strictly longer wait marks it.
        sim = Simulator(slow_path=slow_path)
        sink = Sink()
        port = Port(sim, Link(sim, RATE, 1e-6, sink), FifoScheduler(1),
                    TcnMarker(sojourn_threshold=threshold))
        port.enqueue(make_data(1, 0, 1, 0), 0)
        port.enqueue(make_data(1, 0, 1, 1), 0)
        sim.run()
        assert [p.ce for p in sorted(sink.received, key=lambda p: p.seq)] \
            == [False, marked]
