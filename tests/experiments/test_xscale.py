"""X-SCALE: victim-flow error vs fabric size on generated Clos fabrics."""

from __future__ import annotations

import pytest

from repro.experiments import xscale
from repro.experiments.scale import TINY
from repro.net.topology import TopologySpec
from repro.store.runstore import RunStore
from repro.store.spec import RunConfig

SMALL_CLOS = "clos:tiers=2,ports=4,oversub=3"  # 24 hosts, 6 switches


class TestPickEndpoints:
    def test_deterministic_and_distinct(self):
        hosts = list(range(24))
        a = xscale._pick_endpoints(hosts, hogs=8, seed=3)
        b = xscale._pick_endpoints(hosts, hogs=8, seed=3)
        assert a == b
        receiver, victim, sources = a
        assert receiver != victim
        assert len(sources) == 8
        assert len(set(sources)) == 8
        assert receiver not in sources and victim not in sources

    def test_seed_moves_the_receiver(self):
        hosts = list(range(24))
        r1, _, _ = xscale._pick_endpoints(hosts, hogs=8, seed=1)
        r2, _, _ = xscale._pick_endpoints(hosts, hogs=8, seed=2)
        assert r1 != r2

    def test_too_small_fabric_is_an_error(self):
        with pytest.raises(ValueError, match="needs"):
            xscale._pick_endpoints(list(range(5)), hogs=8, seed=1)


class TestPointSpec:
    def test_keys_on_topology_params(self):
        spec_a = xscale.xscale_point_spec("pmsb", "dwrr", SMALL_CLOS,
                                          TINY, 1)
        spec_b = xscale.xscale_point_spec(
            "pmsb", "dwrr", "clos:tiers=2,ports=4,oversub=4", TINY, 1)
        assert spec_a.key() != spec_b.key()

    def test_hogs_re_key(self):
        spec_a = xscale.xscale_point_spec("pmsb", "dwrr", SMALL_CLOS,
                                          TINY, 1, hogs=8)
        spec_b = xscale.xscale_point_spec("pmsb", "dwrr", SMALL_CLOS,
                                          TINY, 1, hogs=16)
        assert spec_a.key() != spec_b.key()

    def test_equivalent_spellings_share_a_key(self):
        spec_a = xscale.xscale_point_spec("pmsb", "dwrr", SMALL_CLOS,
                                          TINY, 1)
        spec_b = xscale.xscale_point_spec(
            "pmsb", "dwrr", TopologySpec.parse(
                "clos:oversubscription=3,ports_per_switch=4,tiers=2"),
            TINY, 1)
        assert spec_a.key() == spec_b.key()


class TestPoint:
    def test_single_bottleneck_is_rejected(self):
        with pytest.raises(ValueError, match="multi-host"):
            xscale.xscale_point("pmsb", "single-bottleneck:senders=4")

    def test_point_measures_the_receiver_downlink(self):
        row = xscale.xscale_point("pmsb", SMALL_CLOS, hogs=4, seed=1,
                                  config=RunConfig(duration=0.008))
        assert row.n_hosts == 24
        assert row.n_switches == 6
        assert row.topology == "clos:oversub=3.0,ports=4,tiers=2"
        assert row.victim_gbps > 0 and row.hogs_gbps > 0
        assert 0.0 <= row.victim_err

    def test_pmsb_protects_the_victim_better_than_per_port(self):
        rows = {
            scheme: xscale.xscale_point(scheme, SMALL_CLOS, hogs=4,
                                        seed=1,
                                        config=RunConfig(duration=0.01))
            for scheme in ("pmsb", "per-port")
        }
        assert rows["pmsb"].victim_err < rows["per-port"].victim_err

    def test_row_is_a_function_of_its_spec(self):
        # Flow ids feed the ECMP hash; drawn from the process-global
        # counter they tied a row to whatever ran earlier in the process.
        rows = [xscale.xscale_point("per-port",
                                    "clos:tiers=2,ports=8,oversub=1.5",
                                    seed=1, config=RunConfig(duration=0.008))
                for _ in range(2)]
        assert rows[0] == rows[1]

    def test_payload_round_trip(self):
        row = xscale.xscale_point("pmsb", SMALL_CLOS, hogs=4, seed=1,
                                  config=RunConfig(duration=0.004))
        assert xscale.XScaleRow.from_payload(row.to_payload()) == row
        # Records written while rows carried the wall-clock build time
        # still load.
        old = dict(row.to_payload(), build_s=0.0123)
        assert xscale.XScaleRow.from_payload(old) == row


class TestSweep:
    def test_sweep_caches_and_resumes(self, tmp_path):
        ladder = ((SMALL_CLOS, 24),)
        config = RunConfig(jobs=1, cache_dir=str(tmp_path), resume=True)
        first = xscale.run_xscale_sweep(
            scheme_names=("pmsb",), ladder=ladder, hogs=4,
            profile=TINY, config=config)
        store = RunStore(str(tmp_path))
        assert len(list(store.records())) == 1
        second = xscale.run_xscale_sweep(
            scheme_names=("pmsb",), ladder=ladder, hogs=4,
            profile=TINY, config=config)
        assert [row.to_payload() for row in first] == \
            [row.to_payload() for row in second]

    def test_ladder_pin_catches_shape_regressions(self):
        config = RunConfig(jobs=1)
        with pytest.raises(RuntimeError, match="shape regression"):
            xscale.run_xscale_sweep(
                scheme_names=("pmsb",), ladder=((SMALL_CLOS, 999),),
                hogs=4, profile=TINY, config=config)

    def test_plain_string_ladder_entries(self):
        rows = xscale.run_xscale_sweep(
            scheme_names=("pmsb",), ladder=(SMALL_CLOS,), hogs=4,
            profile=TINY, config=RunConfig(jobs=1))
        assert len(rows) == 1
        assert rows[0].n_hosts == 24
