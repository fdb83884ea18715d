"""Chaos experiments: faulted sweeps must keep every store guarantee
(cache hits, crash/resume, jobs-level byte-identity) and pass the
fabric auditor with injected loss."""

from __future__ import annotations

import pytest

from repro.experiments import chaos, largescale
from repro.experiments.chaos import (chaos_fair_share, chaos_faults,
                                     chaos_point_spec, chaos_victim,
                                     run_chaos_sweep)
from repro.experiments.largescale import run_fct_point
from repro.experiments.scale import TINY
from repro.metrics.export import to_json
from repro.store import RunConfig, RunStore, sweep
from repro.store.sweep import CRASH_AFTER_ENV

pytestmark = pytest.mark.slow

SEED = 11
RATES = (0.0, 1e-3)


def _sweep(cache_dir, jobs=1, force=False, audit=None, rates=RATES):
    return run_chaos_sweep(
        scheme_names=("pmsb", "per-port"), loss_rates=rates,
        config=RunConfig(profile=TINY, seed=SEED, jobs=jobs, audit=audit,
                         cache_dir=str(cache_dir) if cache_dir else None,
                         force=force))


def _export(rows, path):
    to_json(rows, str(path))
    return path.read_bytes()


class TestChaosFaults:
    def test_rate_zero_is_the_clean_baseline(self):
        assert chaos_faults("iid-loss", 0.0) == ()

    def test_nonzero_rate_builds_one_spec(self):
        (spec,) = chaos_faults("gilbert-elliott", 1e-3, links="bottleneck")
        assert spec.links == "bottleneck"


class TestChaosPointSpec:
    def test_loss_rate_re_keys_the_point(self):
        clean = chaos_point_spec("pmsb", "dwrr", 0.5, TINY, SEED,
                                 "iid-loss", 0.0)
        lossy = chaos_point_spec("pmsb", "dwrr", 0.5, TINY, SEED,
                                 "iid-loss", 1e-3)
        assert clean.key() != lossy.key()

    def test_model_re_keys_at_matched_rate(self):
        iid = chaos_point_spec("pmsb", "dwrr", 0.5, TINY, SEED,
                               "iid-loss", 1e-3)
        ge = chaos_point_spec("pmsb", "dwrr", 0.5, TINY, SEED,
                              "gilbert-elliott", 1e-3)
        assert iid.key() != ge.key()

    def test_shards_re_key_but_single_process_is_unchanged(self):
        base = chaos_point_spec("pmsb", "dwrr", 0.5, TINY, SEED,
                                "iid-loss", 1e-3)
        single = chaos_point_spec("pmsb", "dwrr", 0.5, TINY, SEED,
                                  "iid-loss", 1e-3, shards=1)
        sharded = chaos_point_spec("pmsb", "dwrr", 0.5, TINY, SEED,
                                   "iid-loss", 1e-3, shards=2)
        assert base.key() == single.key()
        assert base.key() != sharded.key()

    def test_distinct_from_clean_sweep_family(self):
        chaos_spec = chaos_point_spec("pmsb", "dwrr", 0.5, TINY, SEED,
                                      "iid-loss", 0.0)
        clean_spec = largescale.fct_point_spec("pmsb", "dwrr", 0.5, TINY,
                                               SEED)
        assert chaos_spec.key() != clean_spec.key()


class TestStoreContract:
    def test_cold_run_populates_store(self, tmp_path):
        rows = _sweep(tmp_path / "cache")
        assert len(RunStore(tmp_path / "cache")) == len(rows) == 4
        assert sweep._points_computed == 4

    def test_warm_run_computes_nothing(self, tmp_path):
        cold = _sweep(tmp_path / "cache")
        warm = _sweep(tmp_path / "cache")
        assert sweep._points_computed == 0
        assert warm == cold

    def test_sharded_points_record_their_fleet_block(self, tmp_path):
        # The chaos worker was a copy of the FCT one that dropped
        # provenance.shards; both now go through cached_point.
        run_chaos_sweep(
            scheme_names=("pmsb",), loss_rates=(1e-3,),
            config=RunConfig(profile=TINY, seed=SEED, jobs=1, shards=2,
                             cache_dir=str(tmp_path)))
        (record,) = RunStore(tmp_path).records()
        assert record.provenance["shards"]["n"] == 2
        assert record.provenance["engine"]["events_processed"] > 0

    def test_parallel_cold_run_matches_serial(self, tmp_path):
        serial = _export(_sweep(tmp_path / "cache-a"), tmp_path / "a.json")
        parallel = _export(_sweep(tmp_path / "cache-b", jobs=4),
                           tmp_path / "b.json")
        assert serial == parallel

    def test_crash_resume_is_byte_identical(self, tmp_path, monkeypatch):
        clean = _export(_sweep(tmp_path / "clean-cache"),
                        tmp_path / "clean.json")

        monkeypatch.setenv(CRASH_AFTER_ENV, "2")
        with pytest.raises(RuntimeError, match="injected crash"):
            _sweep(tmp_path / "cache")
        monkeypatch.delenv(CRASH_AFTER_ENV)
        assert len(RunStore(tmp_path / "cache")) == 2

        # Resume at a different jobs level: the two surviving points are
        # cache hits, the other two recompute, and the export still
        # matches the clean run byte-for-byte.
        resumed = _export(_sweep(tmp_path / "cache", jobs=2),
                          tmp_path / "resumed.json")
        assert resumed == clean
        assert len(RunStore(tmp_path / "cache")) == 4


class TestLossActuallyHappens:
    def test_paired_drops_across_schemes(self, tmp_path):
        rows = _sweep(None, rates=(1e-3,))
        assert len(rows) == 2
        assert all(sum(row.drops.values()) > 0 for row in rows)
        # Fault streams key on (seed, salt, link) — not the scheme — so
        # both schemes saw the same loss pattern.
        assert rows[0].drops == rows[1].drops

    def test_audited_lossy_sweep_passes(self, tmp_path):
        # The auditor's conservation invariants must account for every
        # injected drop; a violation raises inside the worker.
        rows = _sweep(None, audit=True, rates=(1e-3,))
        assert all(sum(row.drops.values()) > 0 for row in rows)

    def test_audited_lossy_point_reports_fault_stats(self):
        stats = {}
        row = run_fct_point(
            "pmsb", "dwrr", 0.5, TINY, seed=SEED,
            config=RunConfig(audit=True),
            faults=chaos_faults("iid-loss", 1e-3),
            fault_stats_out=stats,
        )
        assert row.completed > 0
        assert stats["drops"].get("wire", 0) > 0
        assert sum(link["lost"] for link in stats["links"].values()) == \
            sum(stats["drops"].values())

    @pytest.mark.parametrize("model,rate", [
        ("iid-loss", 1e-3),
        ("gilbert-elliott", 1e-3),
    ])
    def test_fault_streams_survive_sharding(self, model, rate):
        """Per-link fault RNG streams key on (seed, salt, link name),
        never on process layout — splitting the fabric into shards must
        replay the identical loss pattern on every link."""
        results = []
        for shards in (None, 2):
            stats = {}
            row = run_fct_point(
                "pmsb", "dwrr", 0.5, TINY, seed=SEED,
                config=RunConfig(shards=shards),
                faults=chaos_faults(model, rate, links="leaf*->spine*"),
                fault_stats_out=stats,
            )
            results.append((row, stats))
        (base_row, base_stats), (shard_row, shard_stats) = results
        assert base_stats == shard_stats
        assert base_row == shard_row


class TestStaticVariants:
    def test_chaos_victim_measures_drops(self):
        row = chaos_victim(
            loss_rate=1e-2, config=RunConfig(duration=0.004, audit=True))
        assert row.scheme == "Per-Port"
        assert sum(row.drops.values()) > 0
        assert 0.0 <= row.fair_share_error

    def test_chaos_fair_share_clean_baseline_has_no_drops(self):
        row = chaos_fair_share(loss_rate=0.0,
                               config=RunConfig(duration=0.004))
        assert row.drops == {}
        assert row.fair_share_error < 0.05

    def test_payload_round_trip(self):
        row = chaos.ChaosFctRow(
            model="iid-loss", loss_rate=1e-3, drops={"wire": 3},
            fct=run_fct_point("pmsb", "dwrr", 0.5, TINY, seed=SEED))
        assert chaos.ChaosFctRow.from_payload(row.to_payload()) == row
