"""Unit tests for the §IV-D steady-state analysis (Theorem IV.1)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.analysis import (SteadyStateModel, bdp_packets, gamma,
                                 oscillation_amplitude,
                                 port_threshold_lower_bound, queue_min_length,
                                 queue_min_lower_bound, queue_peak_length,
                                 queue_threshold_lower_bound,
                                 worst_case_flow_count)
from repro.store.spec import RunConfig

C = 10e9
RTT = 100e-6  # BDP ~ 83 packets


class TestBasics:
    def test_bdp_packets(self):
        assert bdp_packets(C, RTT) == pytest.approx(C * RTT / (8 * 1500))

    def test_bdp_validation(self):
        with pytest.raises(ValueError):
            bdp_packets(0, RTT)
        with pytest.raises(ValueError):
            bdp_packets(C, 0)

    def test_gamma(self):
        assert gamma([1, 1], 0) == 0.5
        assert gamma([3, 1], 0) == 0.75

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            gamma([], 0)


class TestTheoremIV1:
    def test_bound_formula(self):
        bound = queue_threshold_lower_bound([1, 1], 0, C, RTT)
        assert bound == pytest.approx(0.5 * bdp_packets(C, RTT) / 7.0)

    def test_port_bound_is_bdp_over_seven(self):
        # Shares sum to 1 so the port bound is C·RTT/7 regardless of the
        # weight vector.
        for weights in ([1, 1], [3, 1], [1, 2, 3, 4]):
            bound = port_threshold_lower_bound(weights, C, RTT)
            assert bound == pytest.approx(bdp_packets(C, RTT) / 7.0)

    def test_paper_large_scale_setting(self):
        # §VI-B: RTT 85.2 µs at 10 Gbps → port bound ≈ 10.1 packets,
        # so the paper rounds up to 12.
        bound = port_threshold_lower_bound([1] * 8, 10e9, 85.2e-6)
        assert 9.0 < bound < 12.0

    @given(
        weights=st.lists(st.floats(0.1, 10), min_size=1, max_size=8),
        index=st.integers(0, 7),
    )
    def test_bound_scales_with_share(self, weights, index):
        if index >= len(weights):
            index = 0
        bound = queue_threshold_lower_bound(weights, index, C, RTT)
        share = weights[index] / sum(weights)
        assert bound == pytest.approx(share * bdp_packets(C, RTT) / 7.0)


class TestSawtoothModel:
    def test_peak_formula(self):
        assert queue_peak_length(k_i=10, n_i=4) == 14

    def test_amplitude_formula(self):
        amplitude = oscillation_amplitude(n_i=8, gamma_i=0.5,
                                          bdp_pkts=80, k_i=10)
        assert amplitude == pytest.approx(0.5 * math.sqrt(2 * 8 * (40 + 10)))

    def test_amplitude_needs_flows(self):
        with pytest.raises(ValueError):
            oscillation_amplitude(0, 0.5, 80, 10)

    def test_min_is_peak_minus_amplitude(self):
        n, g, bdp, k = 8, 0.5, 80.0, 10.0
        expected = queue_peak_length(k, n) - oscillation_amplitude(n, g, bdp, k)
        assert queue_min_length(n, g, bdp, k) == pytest.approx(expected)

    @given(
        k=st.floats(1.0, 100.0),
        g=st.floats(0.05, 1.0),
        bdp=st.floats(10.0, 200.0),
    )
    def test_eq10_is_minimum_over_flow_counts(self, k, g, bdp):
        """Eq. 10 must lower-bound Q_i^min(n) for every n, with the
        minimum attained at Eq. 11's n*."""
        floor = queue_min_lower_bound(g, bdp, k)
        n_star = worst_case_flow_count(g, bdp, k)
        assert queue_min_length(n_star, g, bdp, k) == pytest.approx(
            floor, abs=1e-6
        )
        for n in (n_star / 4, n_star / 2, n_star * 2, n_star * 4):
            assert queue_min_length(n, g, bdp, k) >= floor - 1e-6

    @given(g=st.floats(0.05, 1.0), bdp=st.floats(10.0, 200.0))
    def test_bound_is_exactly_where_floor_crosses_zero(self, g, bdp):
        """Theorem IV.1: Q_i^- > 0 iff k_i > γ·BDP/7."""
        bound = g * bdp / 7.0
        assert queue_min_lower_bound(g, bdp, bound) == pytest.approx(0.0,
                                                                     abs=1e-9)
        assert queue_min_lower_bound(g, bdp, bound * 1.01) > 0
        assert queue_min_lower_bound(g, bdp, bound * 0.99) < 0


class TestSteadyStateModel:
    @pytest.fixture
    def model(self):
        return SteadyStateModel(C, RTT, weights=[1, 1])

    def test_underflow_free_matches_bound(self, model):
        bound = model.threshold_bound(0)
        assert not model.underflow_free(0, bound)
        assert model.underflow_free(0, bound * 1.1)

    def test_port_threshold_bound(self, model):
        assert model.port_threshold_bound() == pytest.approx(
            bdp_packets(C, RTT) / 7.0
        )

    def test_sweep_rows(self, model):
        rows = model.sweep_thresholds(0, [1.0, 10.0])
        assert len(rows) == 2
        assert rows[0]["underflow_free"] is False
        assert rows[1]["underflow_free"] is True
        assert all("q_min_lower_bound" in row for row in rows)


class TestSawtoothTrajectory:
    from repro.core.analysis import sawtooth_peak, sawtooth_trajectory

    def test_validation(self):
        from repro.core.analysis import sawtooth_trajectory
        with pytest.raises(ValueError):
            sawtooth_trajectory(0, 1.0, C, RTT, 16)

    def test_queue_matches_eq7(self):
        # Eq. 7: Q = n·W - γ·BDP at every record.
        from repro.core.analysis import bdp_packets, sawtooth_trajectory
        records = sawtooth_trajectory(4, 1.0, 1e9, 20e-6, 16)
        bdp = bdp_packets(1e9, 20e-6)
        for record in records:
            expected = max(0.0, 4 * record["window"] - bdp)
            assert record["queue"] == pytest.approx(expected)

    def test_peak_near_eq8(self):
        # Eq. 8 predicts Q_max = k + n; the RTT-discretized trajectory
        # overshoots by at most one more window-growth step (+n).
        from repro.core.analysis import sawtooth_peak
        for n, k in ((2, 16), (4, 16), (8, 32)):
            peak = sawtooth_peak(n, 1.0, 1e9, 20e-6, k)
            assert k < peak <= k + 2 * n + 1

    def test_oscillates_repeatedly(self):
        from repro.core.analysis import sawtooth_trajectory
        records = sawtooth_trajectory(4, 1.0, 1e9, 20e-6, 16, n_cycles=4)
        queues = [r["queue"] for r in records]
        # The trajectory must rise above threshold and fall back several
        # times (4 marking cycles).
        crossings = sum(
            1 for a, b in zip(queues, queues[1:]) if a >= 16 > b
        )
        assert crossings >= 3

    @pytest.mark.slow
    def test_fluid_peak_tracks_packet_simulation(self):
        """Theory vs implementation: the §IV-D fluid peak and the packet
        simulator's steady-state buffer peak must agree to first order."""
        from repro.core.analysis import sawtooth_peak
        from repro.experiments.marking_point import dctcp_enqueue_dequeue
        traces = dctcp_enqueue_dequeue(threshold_packets=16.0, link_rate=1e9,
                                       config=RunConfig(duration=0.03))
        trace = traces["enqueue"]
        # Steady state: ignore the slow-start transient (first half).
        midpoint = trace.times[-1] / 2
        steady_peak = max(occ for t, occ in zip(trace.times, trace.occupancy)
                          if t >= midpoint)
        fluid = sawtooth_peak(4, 1.0, 1e9, 22.4e-6, 16)
        assert steady_peak == pytest.approx(fluid, rel=0.5)
