"""Unit tests for the fabric report and bootstrap CI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pmsb import PmsbMarker
from repro.metrics.fabric_report import fabric_report
from repro.metrics.stats import bootstrap_ci
from repro.net.topology import TopologySpec
from repro.scheduling.dwrr import DwrrScheduler
from repro.sim.engine import Simulator
from repro.transport.endpoints import open_flow
from repro.transport.flow import Flow


def run_scenario(duration=0.005):
    sim = Simulator()
    net = TopologySpec("single-bottleneck", senders=4).build(
        sim, lambda: DwrrScheduler(2), lambda: PmsbMarker(12))
    for i in range(4):
        open_flow(net, Flow(src=i, dst=4, service=i % 2))
    sim.run(until=duration)
    return net, duration


class TestFabricReport:
    def test_covers_all_switch_ports(self):
        net, duration = run_scenario()
        report = fabric_report(net, duration)
        expected = sum(len(s.ports) for s in net.switches)
        assert len(report.ports) == expected

    def test_bottleneck_is_busiest(self):
        net, duration = run_scenario()
        report = fabric_report(net, duration)
        assert report.busiest_ports[0].port == "sw0:bottleneck"

    def test_utilization_bounded(self):
        net, duration = run_scenario()
        report = fabric_report(net, duration)
        for port in report.ports:
            assert 0.0 <= port.utilization <= 1.01

    def test_hotspots(self):
        net, duration = run_scenario()
        report = fabric_report(net, duration)
        hot = report.hotspots(0.8)
        assert any(p.port == "sw0:bottleneck" for p in hot)

    def test_totals_sum_ports(self):
        net, duration = run_scenario()
        report = fabric_report(net, duration)
        assert report.total_tx_bytes == sum(p.tx_bytes for p in report.ports)
        assert report.total_marked > 0  # PMSB marked something

    def test_render(self):
        net, duration = run_scenario()
        text = fabric_report(net, duration).render(top=3)
        assert "sw0:bottleneck" in text
        assert "CE marks" in text

    def test_duration_validated(self):
        net, _ = run_scenario()
        with pytest.raises(ValueError):
            fabric_report(net, 0.0)


class TestBootstrapCi:
    def test_contains_true_mean_for_tight_sample(self):
        rng = np.random.default_rng(0)
        values = rng.normal(10.0, 0.5, size=200)
        low, high = bootstrap_ci(values)
        assert low < 10.0 < high
        assert high - low < 0.5

    def test_interval_ordering(self):
        low, high = bootstrap_ci([1.0, 2.0, 3.0, 4.0])
        assert low <= high

    def test_custom_statistic(self):
        values = [1.0] * 50 + [100.0]
        low, high = bootstrap_ci(values, statistic=np.median)
        assert high <= 1.0 + 1e-9

    def test_deterministic_given_seed(self):
        values = list(range(30))
        assert bootstrap_ci(values, seed=5) == bootstrap_ci(values, seed=5)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=1.5)
