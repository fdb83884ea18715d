"""Fast shape checks of the experiment builders (tiny durations).

These don't reproduce the paper's numbers (the benchmarks do, at BENCH
scale); they verify each builder runs, returns the right structure, and
points the right direction.
"""

from __future__ import annotations

import pytest

from repro.experiments import (ablations, analysis_validation, largescale,
                               marking_point, motivation, static_flows)
from repro.experiments.scale import TINY
from repro.metrics.fct import SizeClass
from repro.store.spec import RunConfig

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
        rows = largescale.run_fct_sweep(
            ("pmsb", "mq-ecn"), "wfq", TINY, seed=1
        )
        assert all(row.scheme != "MQ-ECN" for row in rows)

    def test_mq_ecn_runs_under_dwrr(self):
        row = largescale.run_fct_point("mq-ecn", "dwrr", 0.5, TINY, seed=1)
        assert row.completed > 0

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            largescale.run_fct_point("pmsb", "fifo", 0.5, TINY)

    def test_reduction_percent(self):
        rows = largescale.run_fct_sweep(("pmsb", "tcn"), "dwrr", TINY, seed=1)
        reductions = largescale.reduction_percent(
            rows, "PMSB", "TCN", SizeClass.SMALL, "mean"
        )
        assert set(reductions) == set(TINY.loads)

    def test_row_stat_accessor(self):
        row = largescale.run_fct_point("pmsb", "dwrr", 0.5, TINY, seed=1)
        assert row.stat(None, "mean") == row.overall.mean
        assert row.stat(SizeClass.SMALL, "p99") == row.small.p99


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

    def test_multi_seed_merges(self):
        merged = largescale.run_fct_point_multi(
            "pmsb", "dwrr", 0.5, TINY, seeds=(1, 2))
        single = largescale.run_fct_point("pmsb", "dwrr", 0.5, TINY, seed=1)
        assert merged.n_flows == 2 * single.n_flows
        assert merged.completed == merged.n_flows
        assert merged.overall.count == merged.completed

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
