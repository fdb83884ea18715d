"""Unit tests for the scheme registry and incast plumbing."""

from __future__ import annotations

import pytest

from repro.core.pmsb import PmsbMarker
from repro.core.pmsb_endhost import AcceptAllFilter, RttEcnFilter
from repro.ecn.base import MarkPoint, NullMarker
from repro.ecn.mq_ecn import MqEcnMarker
from repro.ecn.per_port import PerPortMarker
from repro.ecn.per_queue import PerQueueMarker
from repro.ecn.tcn import TcnMarker
from repro.experiments.scenario import (SCHEME_NAMES, incast_flows,
                                        make_scheme, run_incast)
from repro.scheduling.dwrr import DwrrScheduler
from repro.store import RunConfig


class TestMakeScheme:
    def test_all_names_buildable(self):
        for name in SCHEME_NAMES:
            spec = make_scheme(name)
            assert spec.marker_factory() is not None

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_scheme("quic")

    def test_pmsb_marker_type(self):
        marker = make_scheme("pmsb", port_threshold_packets=12).marker_factory()
        assert isinstance(marker, PmsbMarker)
        assert marker.port_threshold_packets == 12

    def test_pmsbe_combines_per_port_and_filter(self):
        spec = make_scheme("pmsb-e", rtt_threshold=40e-6)
        assert isinstance(spec.marker_factory(), PerPortMarker)
        filt = spec.ecn_filter_factory()
        assert isinstance(filt, RttEcnFilter)
        assert filt.rtt_threshold == 40e-6

    def test_plain_schemes_use_accept_all(self):
        for name in ("pmsb", "mq-ecn", "tcn", "per-port"):
            filt = make_scheme(name).ecn_filter_factory()
            assert isinstance(filt, AcceptAllFilter)

    def test_mq_ecn_rtt_lambda_matches_standard_threshold(self):
        spec = make_scheme("mq-ecn", link_rate=10e9,
                           standard_threshold_packets=16)
        marker = spec.marker_factory()
        assert isinstance(marker, MqEcnMarker)
        assert marker.rtt == pytest.approx(16 * 1500 * 8 / 10e9)

    def test_tcn_threshold_defaults_to_drain_time(self):
        marker = make_scheme("tcn", link_rate=10e9,
                             standard_threshold_packets=16).marker_factory()
        assert isinstance(marker, TcnMarker)
        assert marker.sojourn_threshold == pytest.approx(19.2e-6)

    def test_fractional_thresholds_split_by_weight(self):
        marker = make_scheme(
            "per-queue-fractional", n_queues=2, weights=[3, 1],
            standard_threshold_packets=16,
        ).marker_factory()
        assert isinstance(marker, PerQueueMarker)
        assert marker.threshold(0) == 12.0
        assert marker.threshold(1) == 4.0

    def test_none_scheme(self):
        assert isinstance(make_scheme("none").marker_factory(), NullMarker)

    def test_mark_point_propagates(self):
        marker = make_scheme("pmsb",
                             mark_point=MarkPoint.DEQUEUE).marker_factory()
        assert marker.mark_point is MarkPoint.DEQUEUE

    def test_transport_config_carries_filter(self):
        config = make_scheme("pmsb-e").transport_config(init_cwnd=4.0)
        assert isinstance(config.ecn_filter_factory(), RttEcnFilter)
        assert config.init_cwnd == 4.0


class TestIncastFlows:
    def test_sender_layout(self):
        flows = incast_flows([1, 3])
        assert len(flows) == 4
        assert [f.src for f in flows] == [0, 1, 2, 3]
        assert all(f.dst == 4 for f in flows)
        assert [f.service for f in flows] == [0, 1, 1, 1]

    def test_start_times_per_queue(self):
        flows = incast_flows([1, 2], start_times=[0.0, 0.5])
        assert flows[0].start_time == 0.0
        assert flows[1].start_time == 0.5
        assert flows[2].start_time == 0.5

    def test_long_lived(self):
        assert all(f.is_long_lived for f in incast_flows([2, 2]))

    def test_ids_numbered_from_one_on_every_call(self):
        assert [f.flow_id for f in incast_flows([1, 3])] == [1, 2, 3, 4]
        assert [f.flow_id for f in incast_flows([1, 3])] == [1, 2, 3, 4]

    def test_multipath_rows_do_not_depend_on_earlier_runs(self):
        # ECMP hashes flow ids: ids drawn from a process-wide counter
        # put the second of two identical runs on other paths.
        def row():
            return run_incast(
                make_scheme("pmsb"), lambda: DwrrScheduler(2),
                incast_flows([1, 8]),
                config=RunConfig(duration=0.004),
                topology="leaf-spine:leaf=8,spine=4,hosts_per_leaf=2",
            ).queue_gbps

        assert row() == row()


class TestRunIncast:
    def test_returns_queue_rates(self):
        result = run_incast(
            make_scheme("pmsb"), lambda: DwrrScheduler(2),
            incast_flows([1, 1]), config=RunConfig(duration=0.004),
        )
        assert set(result.queue_gbps) == {0, 1}
        assert result.total_gbps > 5.0  # link mostly utilized

    def test_trace_capture(self):
        result = run_incast(
            make_scheme("pmsb"), lambda: DwrrScheduler(2),
            incast_flows([1, 1]), config=RunConfig(duration=0.002),
            trace_occupancy=True,
        )
        assert result.trace is not None
        assert result.trace.peak > 0

    def test_rtt_capture_by_queue(self):
        result = run_incast(
            make_scheme("pmsb"), lambda: DwrrScheduler(2),
            incast_flows([1, 2]), config=RunConfig(duration=0.002),
            record_rtt=True,
        )
        assert len(result.rtt_samples(queue_index=1)) > 0
        total = len(result.rtt_samples())
        assert total >= len(result.rtt_samples(queue_index=1))
