"""X-SCALE: victim-flow error vs fabric size on generated Clos fabrics."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments import xscale
from repro.experiments.families import XSCALE, XScaleRow, xscale_point_spec
from repro.experiments.scale import TINY
from repro.net.topology import TopologySpec
from repro.store.runstore import RunStore
from repro.store.spec import RunConfig
from repro.store.sweep import run_sweep

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
        spec_a = xscale_point_spec("pmsb", "dwrr", SMALL_CLOS,
                                   TINY, 1)
        spec_b = xscale_point_spec(
            "pmsb", "dwrr", "clos:tiers=2,ports=4,oversub=4", TINY, 1)
        assert spec_a.key() != spec_b.key()

    def test_hogs_re_key(self):
        spec_a = xscale_point_spec("pmsb", "dwrr", SMALL_CLOS,
                                   TINY, 1, hogs=8)
        spec_b = xscale_point_spec("pmsb", "dwrr", SMALL_CLOS,
                                   TINY, 1, hogs=16)
        assert spec_a.key() != spec_b.key()

    def test_equivalent_spellings_share_a_key(self):
        spec_a = xscale_point_spec("pmsb", "dwrr", SMALL_CLOS,
                                   TINY, 1)
        spec_b = xscale_point_spec(
            "pmsb", "dwrr", TopologySpec.parse(
                "clos:oversubscription=3,ports_per_switch=4,tiers=2"),
            TINY, 1)
        assert spec_a.key() == spec_b.key()


def _point(scheme, topology, duration, hogs=4):
    profile = replace(TINY, static_duration=duration)
    (row,) = run_sweep(XSCALE, {"topology": (topology,),
                                "scheme_name": (scheme,), "hogs": (hogs,)},
                       RunConfig(profile=profile, jobs=1))
    return row


class TestPoint:
    def test_single_bottleneck_is_rejected(self):
        with pytest.raises(ValueError, match="multi-host"):
            _point("pmsb", "single-bottleneck:senders=4", 0.004, hogs=8)

    def test_point_measures_the_receiver_downlink(self):
        row = _point("pmsb", SMALL_CLOS, 0.008)
        assert row.n_hosts == 24
        assert row.n_switches == 6
        assert row.topology == "clos:oversub=3.0,ports=4,tiers=2"
        assert row.victim_gbps > 0 and row.hogs_gbps > 0
        assert 0.0 <= row.victim_err

    def test_pmsb_protects_the_victim_better_than_per_port(self):
        rows = {scheme: _point(scheme, SMALL_CLOS, 0.01)
                for scheme in ("pmsb", "per-port")}
        assert rows["pmsb"].victim_err < rows["per-port"].victim_err

    def test_row_is_a_function_of_its_spec(self):
        # Flow ids feed the ECMP hash; drawn from the process-global
        # counter they tied a row to whatever ran earlier in the process.
        rows = [_point("per-port", "clos:tiers=2,ports=8,oversub=1.5",
                       0.008, hogs=8)
                for _ in range(2)]
        assert rows[0] == rows[1]

    def test_payload_round_trip(self):
        row = _point("pmsb", SMALL_CLOS, 0.004)
        assert XScaleRow.from_payload(row.to_payload()) == row
        # Records written while rows carried the wall-clock build time
        # still load.
        old = dict(row.to_payload(), build_s=0.0123)
        assert XScaleRow.from_payload(old) == row


def _sweep(ladder, config):
    return run_sweep(XSCALE, {"topology": ladder,
                                     "scheme_name": ("pmsb",), "hogs": (4,)},
                     config.evolve(profile=TINY))


class TestSweep:
    def test_sweep_caches_and_resumes(self, tmp_path):
        config = RunConfig(jobs=1, cache_dir=str(tmp_path))
        first = _sweep((SMALL_CLOS,), config)
        store = RunStore(str(tmp_path))
        assert len(list(store.records())) == 1
        second = _sweep((SMALL_CLOS,), config)
        assert [row.to_payload() for row in first] == \
            [row.to_payload() for row in second]

    def test_ladder_pin_catches_shape_regressions(self, monkeypatch):
        # A rung the ladder pins is checked against the hosts it built,
        # whichever spelling names it.
        monkeypatch.setattr(xscale, "SCALE_LADDER",
                            (("clos:ports=4,oversub=3,tiers=2", 999),))
        with pytest.raises(RuntimeError, match="shape regression"):
            _sweep((SMALL_CLOS,), RunConfig(jobs=1))

    def test_plain_string_ladder_entries(self):
        rows = _sweep((SMALL_CLOS,), RunConfig(jobs=1))
        assert len(rows) == 1
        assert rows[0].n_hosts == 24
