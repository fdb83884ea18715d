"""Unit tests for the sharded-fabric layer (:mod:`repro.sim.shard`).

Covers the deterministic partitioner, the boundary-stub export codec,
the engine's windowed-run contract the conservative protocol relies on
(exclusive bounds, clock clamping, barrier hooks), and the regression
for the timing-wheel anchor bug that stranded cross-window schedules.
"""

from __future__ import annotations

import pytest

from repro.core.pmsb import PmsbMarker
from repro.net.topology import TopologySpec, partition_groups
from repro.scheduling.dwrr import DwrrScheduler
from repro.sim.engine import SimulationError, Simulator
from repro.sim.shard import (
    CutFabric,
    ShardResult,
    ShardScenario,
    ShardedSimulator,
    _round_targets,
    cut_fabric,
    engine_totals,
    plan_shards,
    scenario_stats,
    verify_fabric,
)


def build_leafspine(sim, n_leaf=2, n_spine=2, hosts_per_leaf=3):
    spec = TopologySpec(preset="leaf-spine", n_leaf=n_leaf, n_spine=n_spine,
                        hosts_per_leaf=hosts_per_leaf)
    return spec.build(sim, lambda: DwrrScheduler(2), lambda: PmsbMarker(16))


class TestPlanShards:
    def test_two_shard_leafspine_plan(self, sim):
        network = build_leafspine(sim)
        plan = plan_shards(network, 2)
        assert plan.n_shards == 2
        # Hosts follow their leaf; leaf0's hosts on shard 0, leaf1's on 1.
        assert plan.host_owner == {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
        assert plan.switch_owner["leaf0"] == 0
        assert plan.switch_owner["leaf1"] == 1
        # Every boundary link crosses shards and carries a positive delay.
        assert plan.boundary
        for name, (src, dst, delay) in plan.boundary.items():
            assert src != dst
            assert delay > 0.0
        assert plan.lookahead == min(
            d for (_, _, d) in plan.boundary.values())

    def test_plan_is_deterministic_across_builds(self):
        plans = []
        for _ in range(2):
            sim = Simulator()
            network = build_leafspine(sim)
            plans.append(plan_shards(network, 2))
        assert plans[0].switch_owner == plans[1].switch_owner
        assert plans[0].host_owner == plans[1].host_owner
        assert plans[0].boundary == plans[1].boundary

    def test_more_shards_than_groups_raises(self, sim):
        network = build_leafspine(sim)  # 2 host-facing leaves -> 2 groups
        with pytest.raises(ValueError, match="shard"):
            plan_shards(network, 3)

    def test_partition_groups_orders_by_network_position(self, sim):
        network = build_leafspine(sim, n_leaf=4, n_spine=2,
                                  hosts_per_leaf=2)
        groups = partition_groups(network)
        assert len(groups) == 4
        order = {id(s): i for i, s in enumerate(network.switches)}
        positions = [order[id(sw)] for group in groups for sw in group]
        assert positions == sorted(positions)

    def test_local_hosts(self, sim):
        network = build_leafspine(sim)
        plan = plan_shards(network, 2)
        assert plan.local_hosts(0) == {0, 1, 2}
        assert plan.local_hosts(1) == {3, 4, 5}


class TestWindowedRun:
    """The engine contract `run_until_lbts` builds on."""

    def test_exclusive_bound_defers_event_at_until(self, sim):
        fired = []
        sim.at(1e-3, fired.append, "edge")
        sim.run(until=1e-3, exclusive=True)
        assert fired == []
        assert sim.now == 1e-3  # clock still clamps to the bound
        sim.run(until=2e-3, exclusive=True)
        assert fired == ["edge"]

    def test_inclusive_bound_fires_event_at_until(self, sim):
        fired = []
        sim.at(1e-3, fired.append, "edge")
        sim.run(until=1e-3)
        assert fired == ["edge"]

    def test_barrier_hook_invoked_with_bound(self, sim):
        bounds = []
        sim.barrier_hook = bounds.append
        sim.run_until_lbts(5e-6)
        sim.run_until_lbts(1e-5)
        assert bounds == [5e-6, 1e-5]

    def test_idle_windows_then_near_schedule_fires_on_time(self, sim):
        """Regression: windowed idling must not strand later schedules.

        With a far-future timer pending, consecutive idle ``run(until)``
        windows used to drag the wheel's routing anchor ahead of the
        clock; an event then scheduled between the clock and the stale
        anchor was skipped by the cursor clamp and only resurfaced a
        full wheel lap (~4 ms) later, firing with its original
        timestamp and regressing the clock.  This is exactly a shard
        injecting a cross-boundary arrival into an idle peer.
        """
        fired = []
        sim.at(9.3e-5, fired.append, "timer")
        for k in range(1, 17):  # idle-step to t=80us in 5us windows
            sim.run(until=k * 5e-6, exclusive=True)
        assert sim.now == 8e-5
        assert fired == []
        sim.at(8.17e-5, lambda: fired.append(("inject", sim.now)))
        sim.run(until=8.5e-5, exclusive=True)
        assert fired == [("inject", 8.17e-5)]
        sim.run(until=9.5e-5, exclusive=True)
        assert fired == [("inject", 8.17e-5), "timer"]

    def test_clock_never_regresses_across_windows(self, sim):
        times = []
        sim.at(2e-6, lambda: times.append(sim.now))
        sim.at(4.2e-5, lambda: times.append(sim.now))
        seen = []
        for k in range(1, 30):
            sim.run(until=k * 5e-6, exclusive=True)
            seen.append(sim.now)
        assert times == [2e-6, 4.2e-5]
        assert seen == sorted(seen)


class TestCutFabric:
    def _cut_pair(self):
        sims, fabrics = [], []
        for shard_id in range(2):
            sim = Simulator()
            network = build_leafspine(sim)
            plan = plan_shards(network, 2)
            fabrics.append(CutFabric(sim, network, plan, shard_id))
            sims.append(sim)
        return sims, fabrics

    def test_boundary_links_are_stubbed(self):
        _, (fab0, fab1) = self._cut_pair()
        # Each shard imports exactly the links whose dst side it owns.
        for fab in (fab0, fab1):
            for name in fab.import_map:
                _, dst_owner, _ = fab.plan.boundary[name]
                assert dst_owner == fab.shard_id
        assert set(fab0.import_map) | set(fab1.import_map) == set(
            fab0.plan.boundary)
        assert not (set(fab0.import_map) & set(fab1.import_map))

    def test_export_inject_round_trip(self):
        (sim0, sim1), (fab0, fab1) = self._cut_pair()
        # Send one packet from a shard-0 host toward a shard-1 host and
        # run a few conservative windows by hand.
        from repro.net.packet import make_data

        pkt = make_data(7, 0, 4, 0, service=1)
        host0 = fab0.network.hosts[0]
        sim0.at(0.0, host0.send, pkt)
        lookahead = fab0.plan.lookahead
        delivered = []
        host4 = fab1.network.hosts[4]
        host4.register_flow(7, data_handler=lambda p: delivered.append(
            (sim1.now, p.flow_id, p.dst)))
        for k in range(400):
            until0, _ = _round_targets(k, lookahead, 1.0)
            sim0.run_until_lbts(until0)
            sim1.run_until_lbts(until0)
            outs0 = fab0.take_outboxes()
            outs1 = fab1.take_outboxes()
            fab1.inject(outs0.get(1, []))
            fab0.inject(outs1.get(0, []))
            if delivered:
                break
        assert delivered, "packet never crossed the shard boundary"
        arrival, flow_id, dst = delivered[0]
        assert flow_id == 7 and dst == 4
        assert fab0.exported >= 1 and fab1.imported >= 1

    def test_inject_orders_ties_by_link_then_seq(self):
        (_, sim1), (fab0, fab1) = self._cut_pair()
        order = []
        for name in list(fab1.import_map):
            fab1.import_map[name] = type(
                "Rec", (), {"receive": staticmethod(
                    lambda p, n=name: order.append(n))})()
        t = sim1.now + 1e-5
        links = sorted(fab1.import_map)
        entries = []
        for seq, name in [(2, links[-1]), (1, links[0]), (2, links[0])]:
            entries.append((t, name, seq, 0, 1, 0, 4, 0, 1500, 0, 1,
                            0, 0, 0, 0.0, 0.0, 0))
        fab1.inject(entries)
        sim1.run(until=t)
        assert order == [links[0], links[0], links[-1]]

    def test_inject_refuses_stale_entry(self):
        (_, sim1), (_, fab1) = self._cut_pair()
        sim1.run(until=1e-3)
        name = next(iter(fab1.import_map))
        with pytest.raises(SimulationError):
            fab1.inject([(5e-4, name, 1, 0, 1, 0, 4, 0, 1500, 0, 1,
                          0, 0, 0, 0.0, 0.0, 0)])


class TestSingleShardScenario:
    """``n_shards == 1`` is "no plan, no cut, every host local"."""

    def test_cut_fabric_cuts_nothing(self, sim):
        network = build_leafspine(sim)
        delays = [port.link.delay for switch in network.switches
                  for port in switch.ports]
        assert cut_fabric(network, 0, 1) is None
        assert sim.barrier_hook is None
        assert delays == [port.link.delay for switch in network.switches
                          for port in switch.ports]
        verify_fabric(network, None)  # no auditor, no fabric: a no-op

    def test_cut_fabric_cuts_for_real_shards(self, sim):
        network = build_leafspine(sim)
        fabric = cut_fabric(network, 1, 2)
        assert fabric.shard_id == 1
        assert fabric.local_host_ids == {3, 4, 5}

    def test_stats_and_totals_share_the_counter_list(self, sim):
        sim.at(1e-6, lambda: None)
        sim.run(until=1e-5)
        scenario = ShardScenario(sim=sim, deadline=1e-5, total_units=None,
                                 completed=lambda: 0, finalize=dict)
        stats = scenario_stats(scenario, wall_s=0.5)
        assert stats["events_processed"] == 1
        assert (stats["exported"], stats["imported"]) == (0, 0)
        assert stats["wall_s"] == 0.5
        two = [ShardResult(0, None, stats), ShardResult(1, None, stats)]
        assert engine_totals(two) == {
            "events_processed": 2, "wheel_events_processed": 2,
            "heap_events_processed": 0, "cancelled_pending": 0,
            "compactions": 0}


class TestShardedSimulator:
    def test_rejects_single_shard(self):
        with pytest.raises(ValueError, match="n_shards"):
            ShardedSimulator(1, lambda i, n: None)

    def test_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="executor"):
            ShardedSimulator(2, lambda i, n: None, executor="threads")


class TestRoundTargets:
    def test_final_round_is_inclusive_at_deadline(self):
        until, final = _round_targets(0, 5e-6, 1e-3)
        assert (until, final) == (5e-6, False)
        until, final = _round_targets(199, 5e-6, 1e-3)
        assert final and until == 1e-3
        # Deadline below one lookahead: the very first round is final.
        until, final = _round_targets(0, 5e-6, 1e-6)
        assert final and until == 1e-6
