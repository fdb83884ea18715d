"""Unit tests for unidirectional links."""

from __future__ import annotations

import pytest

from repro.net.link import Link
from repro.net.packet import make_data


class Sink:
    name = "sink"

    def __init__(self):
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


class TestLink:
    def test_tx_time(self, sim):
        link = Link(sim, bandwidth=10e9, delay=1e-6)
        assert link.tx_time(1500) == pytest.approx(1500 * 8 / 10e9)

    def test_deliver_applies_propagation_delay(self, sim):
        sink = Sink()
        link = Link(sim, 10e9, delay=3e-6, dst=sink)
        packet = make_data(1, 0, 1, 0)
        link.deliver(packet)
        sim.run(until=2e-6)
        assert sink.received == []
        sim.run(until=4e-6)
        assert sink.received == [packet]

    def test_delivery_counters(self, sim):
        sink = Sink()
        link = Link(sim, 10e9, 1e-6, sink)
        link.deliver(make_data(1, 0, 1, 0, size=1000))
        link.deliver(make_data(1, 0, 1, 1, size=500))
        sim.run()
        assert link.packets_delivered == 2

    def test_unattached_link_rejects_delivery(self, sim):
        link = Link(sim, 10e9, 1e-6)
        with pytest.raises(RuntimeError):
            link.deliver(make_data(1, 0, 1, 0))

    def test_invalid_bandwidth_rejected(self, sim):
        with pytest.raises(ValueError):
            Link(sim, 0.0, 1e-6)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            Link(sim, 1e9, -1e-9)

    def test_zero_delay_allowed(self, sim):
        sink = Sink()
        link = Link(sim, 1e9, 0.0, sink)
        link.deliver(make_data(1, 0, 1, 0))
        sim.run()
        assert len(sink.received) == 1
