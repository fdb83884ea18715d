"""Choudhury–Hahne dynamic-threshold sharing on ports' own accounts."""

from __future__ import annotations

import pytest

from repro.net.packet import make_data
from repro.net.sharedbuf import (CompleteSharingPolicy,
                                 DynamicThresholdPolicy, SharedBuffer)
from tests.pooling import open_account, pooled_port


def dt_buffer(capacity, alpha=1.0):
    return SharedBuffer(capacity, DynamicThresholdPolicy(alpha))


class TestDynamicThreshold:
    def test_validation(self):
        with pytest.raises(ValueError):
            dt_buffer(0)
        with pytest.raises(ValueError):
            dt_buffer(100, alpha=0.0)

    def test_threshold_shrinks_as_pool_fills(self):
        shared = dt_buffer(100, alpha=1.0)
        assert shared.policy.threshold(shared) == 100.0
        account = open_account(shared)
        for _ in range(40):
            account.add(1500)
        assert shared.policy.threshold(shared) == 60.0

    def test_single_port_self_limits(self, sim):
        # With alpha=1, a lone hog converges to half the buffer:
        # occupancy == alpha * (capacity - occupancy).
        port, _ = pooled_port(sim, dt_buffer(100, alpha=1.0))
        admitted = 0
        for seq in range(100):
            if port.enqueue(make_data(1, 0, 1, seq), 0):
                admitted += 1
        assert 48 <= admitted <= 52

    def test_alpha_controls_the_limit(self, sim):
        # alpha/(1+alpha) of the buffer: alpha=4 -> 80%.
        port, _ = pooled_port(sim, dt_buffer(100, alpha=4.0))
        admitted = sum(
            1 for seq in range(100) if port.enqueue(make_data(1, 0, 1, seq), 0)
        )
        assert 76 <= admitted <= 84

    def test_second_port_still_admitted_after_hog(self, sim):
        # The defining property: the hog's self-limit leaves headroom.
        shared = dt_buffer(100, alpha=1.0)
        hog, _ = pooled_port(sim, shared, "hog")
        other, _ = pooled_port(sim, shared, "other")
        for seq in range(100):
            hog.enqueue(make_data(1, 0, 1, seq), 0)
        assert other.enqueue(make_data(2, 0, 1, 0), 0)

    def test_complete_sharing_does_not_leave_headroom(self, sim):
        # Contrast: a plain capped pool lets the hog take everything.
        shared = SharedBuffer(100, CompleteSharingPolicy())
        hog, _ = pooled_port(sim, shared, "hog")
        other, _ = pooled_port(sim, shared, "other")
        for seq in range(100):
            hog.enqueue(make_data(1, 0, 1, seq), 0)
        assert not other.enqueue(make_data(2, 0, 1, 0), 0)

    def test_rejections_counted(self, sim):
        shared = dt_buffer(10, alpha=1.0)
        port, _ = pooled_port(sim, shared)
        for seq in range(20):
            port.enqueue(make_data(1, 0, 1, seq), 0)
        assert shared.rejections > 0
        assert port.drops == shared.rejections


class TestAdmitsIsPure:
    """Regression: ``admits()`` used to bump ``rejections`` as a side
    effect, so any speculative caller (a metrics probe, the auditor's
    drop-legality check) corrupted the rejection statistic."""

    @pytest.mark.parametrize("pool_factory", [
        lambda: SharedBuffer(1, CompleteSharingPolicy()),
        lambda: dt_buffer(1, alpha=1.0),
    ])
    def test_probing_admits_does_not_count(self, sim, pool_factory):
        port, _ = pooled_port(sim, pool_factory())
        account = port.pool
        port.enqueue(make_data(1, 0, 1, 0), 0)
        before = account.rejections
        for _ in range(50):
            assert not account.admits()
        assert account.rejections == before

    def test_rejection_count_pinned_under_probing(self, sim):
        # Interleave speculative probes with real enqueues: only the
        # actual drops may count.
        port, _ = pooled_port(sim, dt_buffer(10, alpha=1.0))
        account = port.pool
        for seq in range(20):
            account.admits()  # probe
            port.enqueue(make_data(1, 0, 1, seq), 0)
            account.admits()  # probe again
        assert account.rejections > 0
        assert port.drops == account.rejections
