"""Unit tests for the shared buffer pool and pool marking."""

from __future__ import annotations

import pytest

from repro.ecn.service_pool import ServicePoolMarker
from repro.net.packet import make_data
from repro.net.sharedbuf import SharedBuffer
from tests.pooling import open_account, pooled_port


def pool_and_account(capacity=100):
    pool = SharedBuffer(capacity)
    return pool, open_account(pool)


class TestBufferPool:
    """The pool's ledger, driven through one member's account."""

    def test_add_remove(self):
        pool, account = pool_and_account()
        account.add(1000)
        account.add(500)
        assert pool.packet_count == account.packet_count == 2
        assert pool.byte_count == account.byte_count == 1500
        account.remove(1000)
        assert pool.packet_count == account.packet_count == 1

    def test_negative_accounting_guard(self):
        _pool, account = pool_and_account()
        account.add(100)
        account.remove(100)
        with pytest.raises(RuntimeError):
            account.remove(100)

    def test_bulk_credit(self):
        pool, account = pool_and_account()
        for _ in range(3):
            account.add(1000)
        account.credit(3, 3000)
        assert pool.packet_count == 0
        assert pool.byte_count == 0

    def test_credit_guards_bytes_too(self):
        _pool, account = pool_and_account()
        account.add(100)
        with pytest.raises(RuntimeError, match="negative"):
            account.credit(1, 200)

    def test_over_credit_packets_raises(self):
        _pool, account = pool_and_account()
        account.add(100)
        with pytest.raises(RuntimeError, match="negative"):
            account.credit(2, 100)

    def test_capacity(self):
        pool, account = pool_and_account(capacity=1)
        assert not pool.is_full
        account.add(100)
        assert pool.is_full

    def test_unbounded_never_full(self, sim):
        # A pool is always finite; one as deep as its members' own
        # buffers (the service-pool experiment's) never binds: the
        # ports drop on their buffers first.
        pool = SharedBuffer(4)
        ports = [pooled_port(sim, pool, name, buffer_packets=2)[0]
                 for name in ("a", "b")]
        for port in ports:
            for seq in range(5):
                port.enqueue(make_data(1, 0, 1, seq), 0)
        assert pool.packet_count == 4
        assert [port.drops for port in ports] == [3, 3]
        assert pool.rejections == 0


class TestServicePoolMarker:
    def test_marks_on_pool_occupancy_across_ports(self, sim):
        # Traffic through port A pushes the pool over the threshold; a
        # packet through port B gets marked — the cross-port interference
        # the paper predicts for per-service-pool marking.
        pool = SharedBuffer(100)
        marker_b = ServicePoolMarker(pool, threshold_packets=3.0)
        port_a, _ = pooled_port(sim, pool, "a")
        port_b, _ = pooled_port(sim, pool, "b", marker=marker_b)
        for seq in range(3):
            port_a.enqueue(make_data(1, 0, 1, seq), 0)
        victim = make_data(2, 0, 1, 0)
        port_b.enqueue(victim, 0)
        assert victim.ce is True

    def test_no_mark_below_threshold(self, sim):
        pool = SharedBuffer(100)
        marker = ServicePoolMarker(pool, threshold_packets=5.0)
        port, _ = pooled_port(sim, pool, marker=marker)
        packet = make_data(1, 0, 1, 0)
        port.enqueue(packet, 0)
        assert packet.ce is False

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            ServicePoolMarker(SharedBuffer(100), -1.0)
