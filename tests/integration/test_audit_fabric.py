"""Whole-experiment runs under the fabric invariant auditor.

Every marking scheme, both experiment runners, and a mid-run sweep reset
are driven with the auditor attached: a clean pass means all cross-layer
conservation invariants held at every datapath event of a realistic run.
"""

from __future__ import annotations

import pytest

from repro.experiments.scale import TINY
from repro.experiments.scenario import incast_flows, make_scheme, run_incast
from repro.scheduling.dwrr import DwrrScheduler
from repro.scheduling.wfq import WfqScheduler
from repro.sim.audit import FabricAuditor
from repro.sim.engine import Simulator
from repro.store import RunConfig

pytestmark = pytest.mark.slow


class TestAuditedIncast:
    @pytest.mark.parametrize("scheme_name", [
        "pmsb", "pmsb-e", "mq-ecn", "tcn", "per-port",
        "per-queue-standard", "per-queue-fractional", "none",
    ])
    def test_every_scheme_passes_audit(self, scheme_name):
        run_incast(
            make_scheme(scheme_name),
            lambda: DwrrScheduler(2),
            incast_flows([1, 2]),
            config=RunConfig(duration=0.01, audit=True),
        )

    def test_wfq_and_bounded_buffer_pass_audit(self):
        # Bounded buffer forces real drops through the drop validator.
        run_incast(
            make_scheme("per-port"),
            lambda: WfqScheduler(2),
            incast_flows([2, 4]),
            buffer_packets=10,
            config=RunConfig(duration=0.01, audit=True),
        )

    def test_audit_counts_checks_and_flows(self):
        # The runner returns before the auditor detaches, so reach the
        # auditor through the network's simulator.
        result = run_incast(
            make_scheme("pmsb"), lambda: DwrrScheduler(2),
            incast_flows([1, 1]),
            config=RunConfig(duration=0.005, audit=True),
        )
        auditor = result.network.sim.auditor
        assert auditor is not None
        assert auditor.checks > 0
        assert auditor.flows_watched == 2
        assert "0 violations" in auditor.report()


class TestAuditedFctPoint:
    def test_tiny_leaf_spine_passes_audit(self):
        from repro.experiments.largescale import run_fct_point

        row = run_fct_point("pmsb", "dwrr", 0.3, profile=TINY, seed=1,
                            config=RunConfig(audit=True))
        assert row.n_flows > 0

    def test_tiny_mq_ecn_passes_audit(self):
        from repro.experiments.largescale import run_fct_point

        row = run_fct_point("mq-ecn", "dwrr", 0.3, profile=TINY, seed=2,
                            config=RunConfig(audit=True))
        assert row.n_flows > 0


class TestAuditAcrossSweepReset:
    def test_clear_reset_cycle_stays_clean(self):
        # The sweep pattern: run, clear the engine, reset every port,
        # run again — all under one auditor.
        from repro.ecn.base import NullMarker
        from repro.net.topology import TopologySpec
        from repro.transport.endpoints import open_flow
        from repro.transport.flow import Flow

        sim = Simulator()
        auditor = FabricAuditor(sim)
        network = TopologySpec("single-bottleneck", senders=2).build(
            sim, lambda: DwrrScheduler(2), NullMarker)
        auditor.attach_network(network)
        open_flow(network, Flow(src=0, dst=2, size_bytes=60_000))
        sim.run(until=0.002)  # mid-transfer
        sim.clear()
        for switch in network.switches:
            for port in switch.ports:
                port.reset()
        for host in network.hosts:
            host.nic.reset()
        open_flow(network, Flow(src=1, dst=2, size_bytes=30_000))
        sim.run(until=0.05)
        assert auditor.clears_observed == 1
        auditor.verify_fabric()
