"""Chaos experiments: faulted sweeps must keep every store guarantee
(cache hits, crash/resume, jobs-level byte-identity) and pass the
fabric auditor with injected loss."""

from __future__ import annotations

import pytest

from repro.experiments.chaos import chaos_fair_share, chaos_victim
from repro.experiments.families import (CHAOS, ChaosFctRow, chaos_faults,
                                       chaos_point_spec, fct_point_spec)
from repro.experiments.largescale import run_fct_point
from repro.experiments.scale import TINY
from repro.metrics.export import to_json
from repro.store import RunConfig, RunStore, sweep
from repro.store.sweep import CRASH_AFTER_ENV, run_sweep

pytestmark = pytest.mark.slow

SEED = 11
RATES = (0.0, 1e-3)


def _sweep(cache_dir, jobs=1, force=False, audit=None, rates=RATES):
    return run_sweep(
        CHAOS, {"scheme_name": ("pmsb", "per-port"), "loss_rate": rates},
        RunConfig(profile=TINY, seed=SEED, jobs=jobs, audit=audit,
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

    def test_distinct_from_clean_sweep_family(self):
        chaos_spec = chaos_point_spec("pmsb", "dwrr", 0.5, TINY, SEED,
                                      "iid-loss", 0.0)
        clean_spec = fct_point_spec("pmsb", "dwrr", 0.5, TINY, SEED)
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
        row = ChaosFctRow(
            model="iid-loss", loss_rate=1e-3, drops={"wire": 3},
            fct=run_fct_point("pmsb", "dwrr", 0.5, TINY, seed=SEED))
        assert ChaosFctRow.from_payload(row.to_payload()) == row
