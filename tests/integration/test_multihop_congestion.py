"""Integration: congestion at multiple hops simultaneously.

The single-bottleneck experiments stress one port; the leaf-spine FCT
runs stress many ports lightly.  These tests construct *deliberate*
multi-hop contention — an oversubscribed uplink feeding a contended
downlink — and check that PMSB behaves sanely when a flow is marked at
two different ports of its path.
"""

from __future__ import annotations

import pytest

from repro.core.pmsb import PmsbMarker
from repro.metrics.fct import FctCollector
from repro.net.topology import TopologySpec
from repro.scheduling.dwrr import DwrrScheduler
from repro.sim.engine import Simulator
from repro.transport.base import DctcpConfig
from repro.transport.endpoints import open_flow
from repro.transport.flow import Flow

pytestmark = pytest.mark.slow


def build(sim, n_spine=1):
    # One spine: the two uplinks are 2:1 oversubscribed when all six
    # hosts of one rack talk to the other rack.
    return TopologySpec(
        "leaf-spine", n_leaf=2, n_spine=n_spine, hosts_per_leaf=3).build(
        sim, lambda: DwrrScheduler(4), lambda: PmsbMarker(12))


class TestMultiHopCongestion:
    def test_all_complete_under_uplink_oversubscription(self):
        sim = Simulator()
        net = build(sim, n_spine=1)
        collector = FctCollector()
        # Every host of rack 0 sends to a distinct host of rack 1 (no
        # downlink sharing) -> the single spine uplink is the bottleneck.
        for i in range(3):
            open_flow(net, Flow(src=i, dst=3 + i, size_bytes=200_000,
                                service=i),
                      DctcpConfig(init_cwnd=16.0),
                      on_complete=collector.on_complete)
        sim.run(until=0.5)
        assert len(collector) == 3

    def test_two_stage_contention_converges(self):
        sim = Simulator()
        net = build(sim, n_spine=1)
        collector = FctCollector()
        # Stage 1: rack-0 hosts contend for the uplink.  Stage 2: they
        # all target ONE receiver, so the downlink is contended too.
        flows = [Flow(src=i, dst=3, size_bytes=150_000, service=i)
                 for i in range(3)]
        handles = [
            open_flow(net, flow, DctcpConfig(init_cwnd=16.0),
                      on_complete=collector.on_complete)
            for flow in flows
        ]
        sim.run(until=0.5)
        assert len(collector) == 3
        # Flows were marked at some port along the way and reacted.
        marked_ports = [p for p in net.all_marked_ports()
                        if p.marker.packets_marked > 0]
        assert marked_ports
        assert any(h.sender.marks_accepted > 0 for h in handles)

    def test_no_livelock_with_reverse_traffic(self):
        """Data and ACKs share the fabric in opposite directions; heavy
        bidirectional load must not deadlock or starve either side."""
        sim = Simulator()
        net = build(sim, n_spine=2)
        collector = FctCollector()
        for i in range(3):
            open_flow(net, Flow(src=i, dst=3 + i, size_bytes=100_000,
                                service=i),
                      DctcpConfig(init_cwnd=16.0),
                      on_complete=collector.on_complete)
            open_flow(net, Flow(src=3 + i, dst=i, size_bytes=100_000,
                                service=i),
                      DctcpConfig(init_cwnd=16.0),
                      on_complete=collector.on_complete)
        sim.run(until=0.5)
        assert len(collector) == 6
