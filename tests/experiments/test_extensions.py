"""Shape checks for the extension experiments (paper prose claims)."""

from __future__ import annotations

import pytest

from repro.experiments.extensions import (pmsbe_coexistence,
                                          service_pool_victim)
from repro.experiments.families import INCAST
from repro.store import RunConfig, run_sweep

FAST = RunConfig(duration=0.01)


class TestServicePoolConjecture:
    def test_cross_port_victim_exists(self):
        result = service_pool_victim(config=FAST)
        # Port A's lone flow cannot fill its own uncontended link.
        assert result.port_a_utilization < 0.6
        assert result.pool_marked > 0

    def test_big_pool_threshold_removes_interference(self):
        result = service_pool_victim(pool_threshold=500.0, config=FAST)
        assert result.port_a_utilization > 0.8

    def test_port_b_unaffected(self):
        result = service_pool_victim(config=FAST)
        # The 8 flows collectively saturate their link either way.
        assert result.port_b_gbps > 8.0


class TestCoexistence:
    def test_baseline_victim(self):
        result = pmsbe_coexistence(victim_upgraded=False, config=FAST)
        assert result.fair_share_error > 0.3
        assert result.victim_filtered_marks == 0

    def test_upgrade_reclaims_fair_share(self):
        result = pmsbe_coexistence(victim_upgraded=True, config=FAST)
        assert result.fair_share_error < 0.15
        assert result.victim_filtered_marks > 0

    def test_others_keep_their_aggregate_share(self):
        baseline = pmsbe_coexistence(victim_upgraded=False, config=FAST)
        upgraded = pmsbe_coexistence(victim_upgraded=True, config=FAST)
        total_base = baseline.victim_gbps + baseline.others_gbps
        total_up = upgraded.victim_gbps + upgraded.others_gbps
        # Link stays fully utilized; the upgrade redistributes, not
        # destroys, throughput.
        assert total_up == pytest.approx(total_base, rel=0.1)


class TestIncastSweep:
    def test_rows_cover_fanins(self):
        rows = run_sweep(INCAST, {"fanin": (8, 16)},
                         RunConfig(duration=0.05))
        assert [row.fanin for row in rows] == [8, 16]
        assert all(row.completed == row.fanin for row in rows)

    def test_ecn_beats_droptail_at_scale(self):
        pmsb, droptail = run_sweep(
            INCAST, {"fanin": (48,), "scheme_name": ("pmsb", "none")},
            RunConfig(duration=0.08))
        assert pmsb.completed == droptail.completed == 48
        assert (pmsb.retransmission_timeouts
                <= droptail.retransmission_timeouts)
