"""Switch-wide shared buffer: policies, accounts, spec, port integration."""

from __future__ import annotations

import pytest

from repro.ecn.base import Marker
from repro.net.link import Link
from repro.net.packet import MTU_BYTES, make_data
from repro.net.port import Port
from repro.net.sharedbuf import (BSharePolicy, CompleteSharingPolicy,
                                 DynamicThresholdPolicy, PortBufferAccount,
                                 SHARING_POLICIES, SharedBuffer,
                                 SharedBufferSpec, StaticPartitionPolicy)
from repro.scheduling.fifo import FifoScheduler
from repro.sim.audit import FabricAuditor
from repro.sim.rng import stable_digest


class Sink:
    name = "sink"

    def __init__(self):
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


class FakeLink:
    """Just enough link for ``SharedBuffer.port_account``."""

    def __init__(self, bandwidth=1e9):
        self.bandwidth = bandwidth


def make_buffer(capacity=8, policy=None):
    return SharedBuffer(capacity, policy)


def open_account(shared, name="p0", drain_bps=1e9):
    return shared.port_account(name, FakeLink(drain_bps))


def fill(account, packets, size=MTU_BYTES):
    for _ in range(packets):
        account.add(size)


def shared_port(sim, shared, name="p0", rate=1e9, marker=None):
    """A real Port debiting the shared buffer through its account."""
    sink = Sink()
    link = Link(sim, rate, 1e-6, sink)
    account = shared.port_account(name, link)
    port = Port(sim, link, FifoScheduler(1), marker, pool=account)
    return port, sink


class TestCompleteSharing:
    def test_admits_until_pool_full(self):
        shared = make_buffer(capacity=3, policy=CompleteSharingPolicy())
        account = open_account(shared)
        for _ in range(3):
            assert account.admits(account.packet_count)
            account.add(MTU_BYTES)
        assert not account.admits(account.packet_count)

    def test_one_port_can_take_everything(self):
        shared = make_buffer(capacity=4, policy=CompleteSharingPolicy())
        hog = open_account(shared, "hog")
        victim = open_account(shared, "victim")
        fill(hog, 4)
        assert not victim.admits(victim.packet_count)


class TestStaticPartition:
    def test_quota_is_capacity_over_ports(self):
        shared = make_buffer(capacity=8, policy=StaticPartitionPolicy())
        a = open_account(shared, "a")
        b = open_account(shared, "b")
        fill(a, 4)  # a's quota: 8 / 2 ports
        assert not a.admits(a.packet_count)
        assert b.admits(b.packet_count)

    def test_unused_quota_is_not_borrowable(self):
        shared = make_buffer(capacity=8, policy=StaticPartitionPolicy())
        a = open_account(shared, "a")
        open_account(shared, "b")
        fill(a, 4)
        # Half the pool is free, but a hit its hard partition.
        assert shared.free_packets == 4
        assert not a.admits(a.packet_count)


class TestDynamicThreshold:
    def test_lone_hog_self_limits_to_alpha_fraction(self):
        # alpha/(1+alpha) of the buffer: alpha=1, capacity=8 -> 4.
        shared = make_buffer(capacity=8, policy=DynamicThresholdPolicy(1.0))
        hog = open_account(shared, "hog")
        while hog.admits(hog.packet_count):
            hog.add(MTU_BYTES)
        assert hog.packet_count == 4

    def test_limit_is_per_port_not_global(self):
        # The whole point of the shared layer: a hog at its own alpha*free
        # limit is rejected while an empty port is still admitted.
        shared = make_buffer(capacity=8, policy=DynamicThresholdPolicy(1.0))
        hog = open_account(shared, "hog")
        victim = open_account(shared, "victim")
        while hog.admits(hog.packet_count):
            hog.add(MTU_BYTES)
        assert not hog.admits(hog.packet_count)
        assert victim.admits(victim.packet_count)

    def test_higher_alpha_means_deeper_claim(self):
        limits = []
        for alpha in (0.5, 1.0, 4.0):
            shared = make_buffer(capacity=60,
                                 policy=DynamicThresholdPolicy(alpha))
            hog = open_account(shared, "hog")
            while hog.admits(hog.packet_count):
                hog.add(MTU_BYTES)
            limits.append(hog.packet_count)
        assert limits == sorted(limits)
        assert limits[0] < limits[-1]

    def test_threshold_tracks_free_space(self):
        shared = make_buffer(capacity=8, policy=DynamicThresholdPolicy(2.0))
        assert shared.policy.threshold(shared) == 16.0
        open_account(shared, "a").add(MTU_BYTES)
        assert shared.policy.threshold(shared) == 14.0

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError, match="alpha"):
            DynamicThresholdPolicy(0.0)


class TestBShare:
    def test_fast_drainer_earns_deeper_buffer(self):
        # Same backlog, different drain rates: the line-rate port is
        # within its delay budget, the slow port is over it.
        shared = make_buffer(capacity=1000,
                             policy=BSharePolicy(target_delay=100e-6))
        fast = open_account(shared, "fast", drain_bps=10e9)
        slow = open_account(shared, "slow", drain_bps=1e9)
        fill(fast, 10)
        fill(slow, 10)  # 10 MTU at 1 Gb/s = 120 us > 100 us budget
        assert fast.admits(fast.packet_count)
        assert not slow.admits(slow.packet_count)

    def test_budget_contracts_as_pool_fills(self):
        policy = BSharePolicy(target_delay=100e-6, min_budget_fraction=0.05)
        shared = make_buffer(capacity=10, policy=policy)
        account = open_account(shared)
        empty_budget = policy.delay_budget(shared)
        fill(account, 5)
        assert policy.delay_budget(shared) == pytest.approx(empty_budget / 2)

    def test_min_budget_fraction_floors_the_budget(self):
        policy = BSharePolicy(target_delay=100e-6, min_budget_fraction=0.2)
        shared = make_buffer(capacity=10, policy=policy)
        account = open_account(shared)
        fill(account, 9)  # free fraction 0.1 < floor 0.2
        assert policy.delay_budget(shared) == pytest.approx(20e-6)

    def test_full_pool_rejects_regardless_of_budget(self):
        shared = make_buffer(capacity=2, policy=BSharePolicy())
        a = open_account(shared, "a", drain_bps=100e9)
        b = open_account(shared, "b", drain_bps=100e9)
        fill(a, 2)
        assert not b.admits(b.packet_count)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="target_delay"):
            BSharePolicy(target_delay=0.0)
        with pytest.raises(ValueError, match="min_budget_fraction"):
            BSharePolicy(min_budget_fraction=1.5)


class TestAccounts:
    def test_mutations_update_account_and_pool(self):
        shared = make_buffer()
        a = open_account(shared, "a")
        b = open_account(shared, "b")
        a.add(1000)
        b.add(500)
        assert (a.packet_count, a.byte_count) == (1, 1000)
        assert (shared.packet_count, shared.byte_count) == (2, 1500)
        a.remove(1000)
        assert (a.packet_count, shared.packet_count) == (0, 1)
        assert shared.byte_count == 500

    def test_bulk_credit(self):
        shared = make_buffer()
        account = open_account(shared)
        fill(account, 3, size=1000)
        account.credit(3, 3000)
        assert (account.packet_count, account.byte_count) == (0, 0)
        assert (shared.packet_count, shared.byte_count) == (0, 0)

    def test_over_credit_trips_the_guard(self):
        shared = make_buffer()
        account = open_account(shared)
        account.add(1000)
        with pytest.raises(RuntimeError, match="negative"):
            account.credit(2, 2000)

    def test_admits_is_pure(self):
        shared = make_buffer(capacity=2, policy=DynamicThresholdPolicy(1.0))
        account = open_account(shared)
        for _ in range(5):
            account.admits(account.packet_count)
        assert account.packet_count == 0
        assert shared.packet_count == 0
        assert account.rejections == 0

    def test_queueing_delay(self):
        shared = make_buffer(capacity=100)
        account = open_account(shared, drain_bps=1e9)
        account.add(12500)  # 100 kbit at 1 Gb/s
        assert account.queueing_delay() == pytest.approx(100e-6)

    def test_drain_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="drain rate"):
            PortBufferAccount(make_buffer(), "p", 0.0)


class TestSharedBuffer:
    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            SharedBuffer(0)
        with pytest.raises(ValueError, match="capacity"):
            SharedBuffer(None)

    def test_default_policy_is_complete_sharing(self):
        assert isinstance(make_buffer().policy, CompleteSharingPolicy)

    def test_peak_is_a_high_water_mark(self):
        shared = make_buffer()
        account = open_account(shared)
        fill(account, 3)
        account.credit(3, 3 * MTU_BYTES)
        account.add(MTU_BYTES)
        assert shared.packet_count == 1
        assert shared.peak_packets == 3

    def test_rejections_sum_member_accounts(self):
        shared = make_buffer()
        a = open_account(shared, "a")
        b = open_account(shared, "b")
        a.rejections += 2
        b.rejections += 1
        assert shared.rejections == 3

    def test_occupancy_snapshot(self):
        shared = make_buffer()
        fill(open_account(shared, "a"), 2)
        fill(open_account(shared, "b"), 1)
        assert shared.occupancy_by_port() == {"a": 2, "b": 1}


class TestSpec:
    def test_parse_full_spelling(self):
        spec = SharedBufferSpec.parse("dt:capacity=200,alpha=2")
        assert spec == SharedBufferSpec(policy="dt", capacity=200, alpha=2.0)

    def test_parse_bare_policy_uses_defaults(self):
        spec = SharedBufferSpec.parse("bshare")
        assert spec.policy == "bshare"
        assert spec.capacity == 256

    def test_parse_scientific_notation(self):
        spec = SharedBufferSpec.parse("bshare:target_delay=100e-6")
        assert spec.target_delay == pytest.approx(100e-6)

    @pytest.mark.parametrize("text", [
        "bogus",                     # unknown policy
        "dt:alpha",                  # missing =value
        "dt:nope=1",                 # unknown key
        "dt:capacity=0",             # out of range
        "dt:alpha=-1",
        "bshare:target_delay=0",
    ])
    def test_parse_errors(self, text):
        with pytest.raises(ValueError):
            SharedBufferSpec.parse(text)

    def test_param_round_trip(self):
        spec = SharedBufferSpec(policy="bshare", capacity=64,
                                target_delay=150e-6)
        assert SharedBufferSpec.from_param(spec.to_param()) == spec

    def test_from_param_accepts_json_list_shape(self):
        spec = SharedBufferSpec(policy="dt", alpha=2.0)
        pairs = [list(pair) for pair in spec.to_param()]
        assert SharedBufferSpec.from_param(pairs) == spec

    def test_from_param_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            SharedBufferSpec.from_param((("policy", "dt"), ("zeta", 1)))

    def test_to_param_is_digestable(self):
        a = stable_digest(SharedBufferSpec(alpha=1.0).to_param())
        b = stable_digest(SharedBufferSpec(alpha=2.0).to_param())
        assert a != b

    @pytest.mark.parametrize("policy,expected", [
        ("complete", CompleteSharingPolicy),
        ("static", StaticPartitionPolicy),
        ("dt", DynamicThresholdPolicy),
        ("bshare", BSharePolicy),
    ])
    def test_build_maps_every_policy_name(self, policy, expected):
        shared = SharedBufferSpec(policy=policy).build(name="sw:buf")
        assert isinstance(shared.policy, expected)
        assert shared.name == "sw:buf"

    def test_policy_names_are_exhaustive(self):
        assert set(SHARING_POLICIES) == {"complete", "static", "dt", "bshare"}


class TestProcessDefault:
    def test_default_resolution(self, small_incast):
        """``RunConfig.shared_buffer`` is honoured, an explicit argument
        wins, and the net layer builds what it is handed — nothing else."""
        from repro.store.spec import RunConfig

        def pool_of(*args, **kwargs):
            return small_incast(*args, **kwargs).network.switches[0] \
                .shared_buffer

        spec = SharedBufferSpec(policy="dt", capacity=32)
        explicit = SharedBufferSpec(policy="bshare", capacity=48)
        config = RunConfig(shared_buffer=spec)
        assert pool_of() is None
        assert pool_of(config).capacity_packets == 32
        assert pool_of(config, shared_buffer=explicit).capacity_packets == 48
        assert pool_of() is None


class CountingMarker(Marker):
    def __init__(self):
        super().__init__()
        self.decisions = 0

    def decide(self, port, queue_index, packet):
        self.decisions += 1
        return False


class TestPortIntegration:
    def test_dt_port_drops_past_its_threshold(self, sim):
        shared = make_buffer(capacity=8, policy=DynamicThresholdPolicy(1.0))
        port, _sink = shared_port(sim, shared)
        for seq in range(12):
            port.enqueue(make_data(1, 0, 1, seq), 0)
        # Self-limit alpha/(1+alpha) * 8 = 4 admitted, the rest dropped
        # at the admission site and charged to the account.
        assert port.packet_count == 4
        assert port.drops == 8
        assert shared.rejections == 8
        sim.run()
        assert shared.packet_count == 0
        assert shared.byte_count == 0

    def test_two_ports_share_one_memory(self, sim):
        shared = make_buffer(capacity=8, policy=DynamicThresholdPolicy(1.0))
        hog, _ = shared_port(sim, shared, "hog")
        victim, _ = shared_port(sim, shared, "victim")
        for seq in range(12):
            hog.enqueue(make_data(1, 0, 1, seq), 0)
        assert hog.drops > 0
        assert victim.enqueue(make_data(2, 0, 1, 0), 0)
        assert shared.occupancy_by_port() == {"hog": 4, "victim": 1}

    def test_audited_shared_ports_pass_verify_fabric(self, sim):
        shared = make_buffer(capacity=8, policy=DynamicThresholdPolicy(1.0))
        auditor = FabricAuditor(sim)
        port_a, _ = shared_port(sim, shared, "a")
        port_b, _ = shared_port(sim, shared, "b")
        auditor.attach_port(port_a)
        auditor.attach_port(port_b)
        for seq in range(6):
            port_a.enqueue(make_data(1, 0, 1, seq), 0)
            port_b.enqueue(make_data(2, 0, 1, seq), 0)
        sim.run()
        auditor.verify_fabric()
        assert auditor.checks > 0

    def test_reset_mid_burst_credits_shared_pool_exactly_once(self, sim):
        # Regression for the Port.reset pool-credit bypass: the old code
        # mutated pool counters directly, skipping the credit guard, so a
        # shared account's pool totals drifted from the port's ledger.
        shared = make_buffer(capacity=32, policy=DynamicThresholdPolicy(4.0))
        auditor = FabricAuditor(sim)
        port, _sink = shared_port(sim, shared)
        auditor.attach_port(port)
        for seq in range(10):
            port.enqueue(make_data(1, 0, 1, seq), 0)
        sim.run(until=1e-6)  # mid-burst: port busy, buffer occupied
        assert port.busy
        assert shared.packet_count > 0
        sim.clear()
        port.reset()
        assert shared.packet_count == 0
        assert shared.byte_count == 0
        # A second reset must not credit again (the old direct mutation
        # would have driven the pool negative without any error).
        port.reset()
        assert shared.packet_count == 0
        auditor.verify_fabric()

    def test_disabled_port_keeps_pool_none(self, sim):
        sink = Sink()
        link = Link(sim, 1e9, 1e-6, sink)
        port = Port(sim, link, FifoScheduler(1), None)
        assert port.pool is None
