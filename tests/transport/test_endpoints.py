"""Unit tests for flow wiring (open_flow) over a real topology."""

from __future__ import annotations

import pytest

from repro.ecn.base import NullMarker
from repro.net.topology import TopologySpec
from repro.scheduling.fifo import FifoScheduler
from repro.transport.base import DctcpConfig
from repro.transport.endpoints import open_flow, open_flows
from repro.transport.flow import Flow


def build(sim, n_senders=2):
    return TopologySpec("single-bottleneck", senders=n_senders).build(
        sim, lambda: FifoScheduler(1), NullMarker)


class TestOpenFlow:
    def test_transfer_completes(self, sim):
        net = build(sim)
        handle = open_flow(net, Flow(src=0, dst=2, size_bytes=50_000))
        sim.run(until=0.05)
        assert handle.fct is not None
        assert handle.receiver.packets_received == handle.flow.size_packets

    def test_delayed_start(self, sim):
        net = build(sim)
        handle = open_flow(net, Flow(src=0, dst=2, size_bytes=10_000,
                                     start_time=0.01))
        sim.run(until=0.005)
        assert handle.sender.packets_sent == 0
        sim.run(until=0.05)
        assert handle.fct is not None

    def test_fct_excludes_start_offset(self, sim):
        net = build(sim)
        early = open_flow(net, Flow(src=0, dst=2, size_bytes=10_000))
        sim.run(until=0.05)
        sim2_fct = early.fct
        assert sim2_fct < 0.01  # transfer itself is fast

    def test_completion_callback(self, sim):
        net = build(sim)
        done = []
        open_flow(net, Flow(src=0, dst=2, size_bytes=10_000),
                  on_complete=lambda f, fct, s: done.append(f.flow_id))
        sim.run(until=0.05)
        assert len(done) == 1

    def test_open_flows_batch(self, sim):
        net = build(sim, n_senders=3)
        flows = [Flow(src=i, dst=3, size_bytes=10_000) for i in range(3)]
        handles = open_flows(net, flows, DctcpConfig(init_cwnd=4.0))
        sim.run(until=0.05)
        assert all(h.fct is not None for h in handles)

    def test_goodput_helper(self, sim):
        net = build(sim)
        handle = open_flow(net, Flow(src=0, dst=2, size_bytes=150_000))
        sim.run(until=0.05)
        assert handle.goodput_bps(0.05) > 0
        with pytest.raises(ValueError):
            handle.goodput_bps(0.0)

    def test_two_flows_share_link(self, sim):
        net = build(sim, n_senders=2)
        a = open_flow(net, Flow(src=0, dst=2, size_bytes=150_000))
        b = open_flow(net, Flow(src=1, dst=2, size_bytes=150_000))
        sim.run(until=0.05)
        assert a.fct is not None and b.fct is not None
