"""Fast shape checks of the experiment builders (tiny durations).

These don't reproduce the paper's numbers (the benchmarks do, at BENCH
scale); they verify each builder runs, returns the right structure, and
points the right direction.
"""

from __future__ import annotations

import pytest

from repro.ecn.base import MarkPoint
from repro.experiments import (ablations, analysis_validation, largescale,
                               marking_point, motivation, static_flows)
from repro.experiments.families import FCT, fct_point_spec, reduction_percent
from repro.experiments.scale import TINY
from repro.metrics.fct import SizeClass
from repro.store.spec import RunConfig
from repro.store.sweep import run_sweep

FAST = 0.008  # seconds of simulated time — enough for direction checks
FAST_CFG = RunConfig(duration=FAST)


class TestMotivation:
    def test_fig1_rtt_grows_with_queue_count(self):
        results = motivation.per_queue_standard_rtt(
            queue_counts=(1, 8), config=FAST_CFG)
        assert results[8].mean > results[1].mean

    def test_fig2_small_threshold_loses_throughput(self):
        results = motivation.per_queue_fractional_throughput(
            thresholds_packets=(2.0, 16.0), config=FAST_CFG)
        assert results[2.0] < results[16.0] * 0.7
        assert results[16.0] > 8.0  # standard threshold fills the 10G link

    def test_fig3_per_port_creates_victim(self):
        result = motivation.per_port_victim(16.0, 8, config=FAST_CFG)
        assert result.queue1_gbps < result.queue2_gbps * 0.5
        assert result.fair_share_error > 0.3

    def test_fig6_larger_threshold_restores_fairness(self):
        result = motivation.per_port_victim(65.0, 8, config=FAST_CFG)
        assert result.fair_share_error < 0.1

    def test_fig7_more_flows_break_it_again(self):
        result = motivation.per_port_victim(65.0, 40, config=FAST_CFG)
        assert result.fair_share_error > 0.3


class TestMarkingPoint:
    def test_fig4_dequeue_marking_lowers_peak(self):
        traces = marking_point.dctcp_enqueue_dequeue(config=FAST_CFG)
        assert traces["dequeue"].peak < traces["enqueue"].peak

    def test_fig5_tcn_peak_like_late_feedback(self):
        dctcp = marking_point.dctcp_enqueue_dequeue(config=FAST_CFG)
        tcn = marking_point.tcn_trace(config=FAST_CFG)
        assert tcn.peak > dctcp["dequeue"].peak * 0.8

    def test_fig11_pmsb_peak_reduction(self):
        traces = marking_point.pmsb_trace(config=FAST_CFG)
        assert traces["dequeue"].peak < traces["enqueue"].peak

    def test_fig12_pmsbe_peak_reduction(self):
        traces = marking_point.pmsbe_trace(config=FAST_CFG)
        assert traces["dequeue"].peak < traces["enqueue"].peak

    def test_trace_steady_state_near_threshold(self):
        traces = marking_point.pmsb_trace(port_threshold=12.0, config=FAST_CFG)
        assert 4.0 < traces["enqueue"].steady_mean < 30.0


class TestStaticFlows:
    def test_fig8_pmsb_weighted_fair_sharing(self):
        result = static_flows.weighted_fair_sharing("pmsb", config=FAST_CFG)
        q0, q1 = result.queue_gbps[0], result.queue_gbps[1]
        assert q0 == pytest.approx(q1, rel=0.15)
        assert result.total_gbps > 8.0

    def test_fig9_pmsb_rtt_below_per_queue_standard(self):
        results = static_flows.rtt_distribution(
            scheme_names=("pmsb", "per-queue-standard"), config=FAST_CFG)
        assert results["PMSB"].mean < results["Per-Queue(std)"].mean

    def test_fig13_sp_wfq_policy(self):
        result = static_flows.scheduler_sp_wfq(
            config=RunConfig(duration=3 * FAST))
        settled = result.settled()
        assert settled[0] == pytest.approx(5.0, rel=0.15)
        assert settled[1] == pytest.approx(2.5, rel=0.3)
        assert settled[2] == pytest.approx(2.5, rel=0.3)

    def test_fig14_sp_policy(self):
        result = static_flows.scheduler_sp(config=RunConfig(duration=3 * FAST))
        settled = result.settled()
        assert settled[0] == pytest.approx(5.0, rel=0.15)
        assert settled[1] == pytest.approx(3.0, rel=0.25)
        assert settled[2] == pytest.approx(2.0, rel=0.35)

    def test_fig15_wfq_policy(self):
        result = static_flows.scheduler_wfq(
            config=RunConfig(duration=3 * FAST))
        alone = result.phase_gbps["q1 only"]
        settled = result.settled()
        assert alone[0] > 8.0
        assert settled[0] == pytest.approx(settled[1], rel=0.2)

    def test_policy_series_available(self):
        result = static_flows.scheduler_wfq(
            config=RunConfig(duration=2 * FAST))
        times, gbps = result.series[0]
        assert len(times) == len(gbps) > 0


class TestLargescale:
    def test_tiny_point_completes(self):
        row = largescale.run_fct_point("pmsb", "dwrr", 0.5, TINY, seed=1)
        assert row.completed == row.n_flows
        assert row.overall.mean > 0
        assert row.small is not None

    def test_wfq_excludes_mq_ecn(self):
        rows = run_sweep(FCT, {"scheme_name": ("pmsb", "mq-ecn"),
                               "scheduler_name": ("wfq",)},
                         RunConfig(profile=TINY, seed=1))
        assert all(row.scheme != "MQ-ECN" for row in rows)

    def test_mq_ecn_runs_under_dwrr(self):
        row = largescale.run_fct_point("mq-ecn", "dwrr", 0.5, TINY, seed=1)
        assert row.completed > 0

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            largescale.run_fct_point("pmsb", "fifo", 0.5, TINY)

    def test_reduction_percent(self):
        rows = run_sweep(FCT, {"scheme_name": ("pmsb", "tcn")},
                         RunConfig(profile=TINY, seed=1))
        reductions = reduction_percent(
            rows, "PMSB", "TCN", SizeClass.SMALL, "mean"
        )
        assert set(reductions) == set(TINY.loads)

    def test_row_stat_accessor(self):
        row = largescale.run_fct_point("pmsb", "dwrr", 0.5, TINY, seed=1)
        assert row.stat(None, "mean") == row.overall.mean
        assert row.stat(SizeClass.SMALL, "p99") == row.small.p99


class TestFabricThresholds:
    """Scheme thresholds come from the fabric the topology spec builds:
    an explicit ``link_delay=`` or ``link_rate=`` wins in both."""

    DELAYED = "leaf-spine:n_leaf=2,n_spine=2,hosts_per_leaf=4,link_delay=20e-6"

    def build_links(self, topo):
        from repro.net.topology import DEFAULT_LINK_DELAY
        from repro.scheduling.dwrr import DwrrScheduler
        from repro.sim.engine import Simulator
        network = topo.build(Simulator(), lambda: DwrrScheduler(8),
                             largescale.fabric_scheme("pmsb", topo, TINY)
                             .marker_factory,
                             default_fabric=TINY.fabric,
                             link_rate=TINY.link_rate,
                             link_delay=DEFAULT_LINK_DELAY)
        return {(port.link.bandwidth, port.link.delay)
                for switch in network.switches for port in switch.ports}

    def test_explicit_link_delay_sets_the_rtt_threshold(self):
        from repro.net.topology import TopologySpec
        topo = TopologySpec.parse(self.DELAYED)
        assert self.build_links(topo) == {(TINY.link_rate, 20e-6)}
        # 4 hops each way: MTU data out, 40 B ACK back, 20 us per hop.
        base_rtt = (4 * (20e-6 + 1500 * 8 / TINY.link_rate)
                    + 4 * (20e-6 + 40 * 8 / TINY.link_rate))
        assert base_rtt == pytest.approx(164.928e-6)
        scheme = largescale.fabric_scheme("pmsb-e", topo, TINY)
        port_drain = 12 * 1500 * 8 / TINY.link_rate
        assert scheme.ecn_filter_factory().rtt_threshold == pytest.approx(
            base_rtt + port_drain)

    def test_explicit_link_rate_sets_the_tcn_threshold(self):
        from repro.net.topology import TopologySpec
        topo = TopologySpec.parse("leaf-spine:link_rate=40e9")
        assert self.build_links(topo) == {(40e9, 5e-6)}
        scheme = largescale.fabric_scheme("tcn", topo, TINY)
        assert scheme.marker_factory().sojourn_threshold == pytest.approx(
            65 * 1500 * 8 / 40e9)

    def test_offered_load_follows_the_built_link_rate(self, monkeypatch):
        from repro.net.topology import TopologySpec
        from repro.sim.rng import make_rng
        from repro.workloads.distributions import PAPER_MIX
        from repro.workloads.generator import PoissonFlowGenerator
        drawn = []

        class Recording(PoissonFlowGenerator):
            def generate(self, *args, **kwargs):
                flows = super().generate(*args, **kwargs)
                drawn.append((self.host_ids, flows))
                return flows

        monkeypatch.setattr(largescale, "PoissonFlowGenerator", Recording)
        topo = TopologySpec.parse("leaf-spine:link_rate=40e9")
        largescale.fct_scenario("pmsb", "dwrr", 0.5, TINY, 1, topo)
        ((hosts, flows),) = drawn
        assert flows == PoissonFlowGenerator(
            make_rng(1), hosts, PAPER_MIX.scaled(TINY.size_scale),
            load=0.5, link_rate_bps=40e9, n_services=8,
        ).generate(n_flows=TINY.largescale_flows)

    def test_default_fabric_keeps_the_profile_thresholds(self):
        from repro.net.topology import TopologySpec
        for name in ("pmsb-e", "tcn"):
            ours = largescale.fabric_scheme(name, TopologySpec(), TINY)
            theirs = largescale.largescale_scheme(name, TINY.link_rate)
            if name == "tcn":
                assert (ours.marker_factory().sojourn_threshold
                        == theirs.marker_factory().sojourn_threshold)
            else:
                assert (ours.ecn_filter_factory().rtt_threshold
                        == theirs.ecn_filter_factory().rtt_threshold)

    def test_link_physics_re_keys_the_point(self):
        from repro.net.topology import TopologySpec
        plain = fct_point_spec(
            "pmsb", "dwrr", 0.5, TINY, 1,
            topology=TopologySpec.parse("leaf-spine:n_leaf=2"))
        delayed = fct_point_spec(
            "pmsb", "dwrr", 0.5, TINY, 1,
            topology=TopologySpec.parse(self.DELAYED))
        assert "thresholds" not in dict(plain.params)
        assert dict(delayed.params)["thresholds"] == "fabric-physics"
        # Only a link rate moves the arrivals as well.
        assert "arrivals" not in dict(delayed.params)
        fast = fct_point_spec(
            "pmsb", "dwrr", 0.5, TINY, 1,
            topology=TopologySpec.parse("leaf-spine:link_rate=40e9"))
        assert dict(fast.params)["arrivals"] == "fabric-rate"


class TestSchemeVariations:
    """AB4, AB5 and X8 vary the FCT point's scheme by argument: the mark
    point and port threshold reach the marker, and the per-queue
    baselines are registry names."""

    def test_mark_point_reaches_the_marker(self):
        from repro.core.pmsb import PmsbMarker
        from repro.net.topology import TopologySpec
        marker = largescale.fabric_scheme(
            "pmsb", TopologySpec(), TINY,
            mark_point=MarkPoint.DEQUEUE).marker_factory()
        assert isinstance(marker, PmsbMarker)
        assert marker.mark_point is MarkPoint.DEQUEUE
        assert marker.port_threshold_packets == largescale.PORT_THRESHOLD_PACKETS

    def test_port_threshold_reaches_the_marker_and_the_filter(self):
        from repro.core.pmsb import PmsbMarker
        from repro.net.topology import TopologySpec
        marker = largescale.fabric_scheme(
            "pmsb", TopologySpec(), TINY,
            port_threshold_packets=24.0).marker_factory()
        assert isinstance(marker, PmsbMarker)
        assert marker.port_threshold_packets == 24.0
        assert marker.mark_point is MarkPoint.ENQUEUE
        # PMSB(e)'s RTT threshold is one port threshold's drain above
        # the base RTT, so it moves with the port threshold.
        def rtt(k):
            return largescale.fabric_scheme(
                "pmsb-e", TopologySpec(), TINY,
                port_threshold_packets=k).ecn_filter_factory().rtt_threshold
        assert rtt(24.0) - rtt(12.0) == pytest.approx(
            12 * 1500 * 8 / TINY.link_rate)

    def test_per_queue_baselines_by_name(self):
        from repro.ecn.per_queue import (PerQueueMarker, fractional_thresholds,
                                         standard_thresholds)
        from repro.net.topology import TopologySpec
        expected = {
            "per-queue-standard": standard_thresholds(8, 65.0),
            "per-queue-fractional": fractional_thresholds([1.0] * 8, 65.0),
        }
        for name, thresholds in expected.items():
            marker = largescale.fabric_scheme(
                name, TopologySpec(), TINY).marker_factory()
            assert isinstance(marker, PerQueueMarker)
            assert marker.thresholds() == {
                "queue_thresholds": tuple(thresholds)}

    @pytest.mark.parametrize("scheme, variation", [
        ("pmsb", {"mark_point": MarkPoint.DEQUEUE}),
        ("pmsb", {"port_threshold_packets": 24.0}),
        ("per-queue-standard", {}),
        ("per-queue-fractional", {}),
    ], ids=["dequeue", "threshold-24", "per-queue-std", "per-queue-frac"])
    def test_each_variation_completes_at_tiny(self, scheme, variation):
        row = largescale.run_fct_point(scheme, "dwrr", 0.5, TINY, seed=1,
                                       **variation)
        assert row.completed == row.n_flows


class TestAnalysisValidation:
    def test_sweep_shows_bound(self):
        rows = analysis_validation.threshold_bound_sweep(
            threshold_factors=(0.25, 4.0), config=FAST_CFG)
        below, above = rows
        assert not below.predicted_underflow_free
        assert above.predicted_underflow_free
        assert below.utilization < above.utilization
        assert above.utilization > 0.9


class TestAblations:
    def test_blindness_scale_zero_is_unfair(self):
        rows = ablations.blindness_aggressiveness(scales=(0.0, 1.0),
                                                  config=FAST_CFG)
        assert rows[0].fair_share_error > rows[1].fair_share_error
        assert rows[1].fair_share_error < 0.15

    def test_rtt_threshold_restores_fairness(self):
        rows = ablations.rtt_threshold_sweep(thresholds_us=(0.0, 40.0),
                                             config=FAST_CFG)
        assert rows[0].fair_share_error > rows[1].fair_share_error


class TestLargescaleExtensions:
    def test_fat_tree_topology_runs(self):
        row = largescale.run_fct_point("pmsb", "dwrr", 0.5, TINY, seed=1,
                                       topology="fat-tree")
        assert row.completed == row.n_flows

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            largescale.run_fct_point("pmsb", "dwrr", 0.5, TINY,
                                     topology="torus")

    def test_wrr_scheduler_supported(self):
        row = largescale.run_fct_point("mq-ecn", "wrr", 0.5, TINY, seed=1)
        assert row.completed > 0


class TestWeightedShareAblation:
    def test_unequal_weights_preserved(self):
        rows = ablations.weighted_share_preservation(
            weight_vectors=((3, 1),), config=FAST_CFG)
        assert rows[0].max_relative_error < 0.1
        q0, q1 = rows[0].queue_gbps
        assert q0 > 2.0 * q1  # roughly 3:1

    def test_row_error_metric(self):
        from repro.experiments.ablations import WeightedShareRow
        perfect = WeightedShareRow(weights=(3, 1), queue_gbps=(7.5, 2.5))
        assert perfect.max_relative_error == 0.0
        skewed = WeightedShareRow(weights=(1, 1), queue_gbps=(8.0, 2.0))
        assert skewed.max_relative_error > 0.5
