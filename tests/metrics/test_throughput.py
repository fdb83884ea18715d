"""Unit tests for the throughput meter."""

from __future__ import annotations

import pytest

from repro.metrics.throughput import ThroughputMeter
from repro.net.link import Link
from repro.net.packet import make_data
from repro.net.port import Port
from repro.scheduling.fifo import FifoScheduler


class Sink:
    name = "sink"

    def receive(self, packet):
        pass


class TestThroughputMeter:
    def test_average_bps(self, sim):
        meter = ThroughputMeter(sim, bin_width=1e-3)
        sim.at(0.5e-3, meter.record, "q", 1250)   # 10 kbit
        sim.at(1.5e-3, meter.record, "q", 1250)
        sim.run()
        # 20 kbit over 2 ms -> 10 Mbit/s
        assert meter.average_bps("q", 0.0, 2e-3) == pytest.approx(10e6)

    def test_window_excludes_outside_bins(self, sim):
        meter = ThroughputMeter(sim, bin_width=1e-3)
        sim.at(0.5e-3, meter.record, "q", 1000)
        sim.at(5.5e-3, meter.record, "q", 1000)
        sim.run()
        assert meter.average_bps("q", 0.0, 1e-3) == pytest.approx(8e6)

    def test_unknown_key_is_zero(self, sim):
        meter = ThroughputMeter(sim, bin_width=1e-3)
        assert meter.average_bps("nothing", 0.0, 1e-3) == 0.0

    def test_total_bytes(self, sim):
        meter = ThroughputMeter(sim, bin_width=1e-3)
        meter.record("a", 100)
        meter.record("a", 200)
        meter.record("b", 50)
        assert meter.total_bytes("a") == 300
        assert meter.total_bytes("b") == 50
        assert meter.total_bytes("c") == 0

    def test_series_shape(self, sim):
        meter = ThroughputMeter(sim, bin_width=1e-3)
        sim.at(0.5e-3, meter.record, "q", 1250)
        sim.at(2.5e-3, meter.record, "q", 2500)
        sim.run()
        times, bps = meter.series("q", 0.0, 3e-3)
        assert len(times) == len(bps) == 3
        assert bps[0] == pytest.approx(10e6)
        assert bps[1] == 0.0
        assert bps[2] == pytest.approx(20e6)

    def test_invalid_window_rejected(self, sim):
        meter = ThroughputMeter(sim, bin_width=1e-3)
        with pytest.raises(ValueError):
            meter.average_bps("q", 1e-3, 1e-3)

    def test_invalid_bin_width_rejected(self, sim):
        with pytest.raises(ValueError):
            ThroughputMeter(sim, bin_width=0.0)

    def test_attach_port_keys_by_queue(self, sim):
        meter = ThroughputMeter(sim, bin_width=1e-3)
        port = Port(sim, Link(sim, 1e9, 1e-6, Sink()), FifoScheduler(2))
        port.observe(meter)
        port.enqueue(make_data(1, 0, 1, 0, size=1500), 0)
        port.enqueue(make_data(2, 0, 1, 0, size=1500), 1)
        sim.run()
        assert meter.total_bytes(0) == 1500
        assert meter.total_bytes(1) == 1500
