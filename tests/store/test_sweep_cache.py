"""Store-backed sweeps: hit/miss/force, crash injection, byte-identical
resume at any jobs level — the acceptance contract of the run store."""

from __future__ import annotations

import os

import pytest

from repro.experiments.families import FCT
from repro.experiments.scale import TINY
from repro.metrics.export import to_json
from repro.store import RunConfig, RunStore, sweep
from repro.store.sweep import CRASH_AFTER_ENV, run_sweep

pytestmark = pytest.mark.slow

SEED = 11


def _sweep(cache_dir, jobs=1, force=False):
    return run_sweep(FCT, config=RunConfig(
        profile=TINY, seed=SEED, jobs=jobs,
        cache_dir=str(cache_dir) if cache_dir else None, force=force))


def _path(store, key):
    return os.path.join(store.runs_dir, f"{key}.json")


def _export(rows, path):
    to_json(rows, str(path))
    return path.read_bytes()


class TestCacheHitMissForce:
    def test_cold_run_populates_store(self, tmp_path):
        rows = _sweep(tmp_path / "cache")
        store = RunStore(tmp_path / "cache")
        assert len(store) == len(rows) == 4  # TINY: 4 schemes x 1 load
        assert sweep._points_computed == 4

    def test_warm_run_computes_nothing(self, tmp_path):
        cold = _sweep(tmp_path / "cache")
        warm = _sweep(tmp_path / "cache")
        assert sweep._points_computed == 0  # pure cache hits
        assert warm == cold

    def test_force_recomputes_every_point(self, tmp_path):
        _sweep(tmp_path / "cache")
        _sweep(tmp_path / "cache", force=True)
        assert sweep._points_computed == 4

    def test_uncached_sweep_untouched_by_store_code(self, tmp_path):
        plain = _sweep(None)
        cached = _sweep(tmp_path / "cache")
        assert plain == cached


class TestCrashAndResume:
    def test_injected_crash_preserves_completed_points(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv(CRASH_AFTER_ENV, "2")
        with pytest.raises(RuntimeError, match="injected crash"):
            _sweep(tmp_path / "cache")
        # The two points finished before the crash were persisted
        # atomically; nothing half-written.
        assert len(RunStore(tmp_path / "cache")) == 2

    def test_resume_is_byte_identical_to_clean_run(self, tmp_path,
                                                   monkeypatch):
        clean = _export(_sweep(tmp_path / "clean-cache"),
                        tmp_path / "clean.json")

        monkeypatch.setenv(CRASH_AFTER_ENV, "2")
        with pytest.raises(RuntimeError):
            _sweep(tmp_path / "cache")
        monkeypatch.delenv(CRASH_AFTER_ENV)

        resumed = _export(_sweep(tmp_path / "cache"),
                          tmp_path / "resumed.json")
        assert resumed == clean
        assert sweep._points_computed == 2  # only the missing half

    def test_resume_at_higher_jobs_level_is_byte_identical(self, tmp_path,
                                                           monkeypatch):
        clean = _export(_sweep(tmp_path / "clean-cache"),
                        tmp_path / "clean.json")

        monkeypatch.setenv(CRASH_AFTER_ENV, "2")
        with pytest.raises(RuntimeError):
            _sweep(tmp_path / "cache")
        monkeypatch.delenv(CRASH_AFTER_ENV)

        resumed = _export(_sweep(tmp_path / "cache", jobs=2),
                          tmp_path / "resumed.json")
        assert resumed == clean

    def test_parallel_cold_run_matches_serial(self, tmp_path):
        serial = _export(_sweep(tmp_path / "cache-a"), tmp_path / "a.json")
        parallel = _export(_sweep(tmp_path / "cache-b", jobs=2),
                           tmp_path / "b.json")
        assert serial == parallel

    def test_cached_rows_export_byte_identical(self, tmp_path):
        cold = _export(_sweep(tmp_path / "cache"), tmp_path / "cold.json")
        warm = _export(_sweep(tmp_path / "cache"), tmp_path / "warm.json")
        assert warm == cold


class TestHalfFilledStore:
    """Some points stored, some not: hits come from the store untouched,
    misses are simulated, and the rows keep point order at any jobs."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mixed_hits_and_misses(self, tmp_path, jobs):
        clean = _export(_sweep(tmp_path / "clean-cache"),
                        tmp_path / "clean.json")
        store = RunStore(tmp_path / "clean-cache")
        cold_rows = _sweep(tmp_path / "clean-cache")
        by_key = {record.result["scheme"]: record.key
                  for record in store.records()}
        # Drop the first and third point of the sweep order.
        for row in (cold_rows[0], cold_rows[2]):
            assert store.delete(by_key[row.scheme])
        kept = {key: (os.stat(_path(store, key)).st_mtime_ns,
                      open(_path(store, key), "rb").read())
                for key in store.keys()}
        assert len(kept) == 2

        rows = _sweep(tmp_path / "clean-cache", jobs=jobs)
        assert [row.scheme for row in rows] \
            == [row.scheme for row in cold_rows]
        assert _export(rows, tmp_path / "mixed.json") == clean
        assert len(store) == 4
        for key, (mtime_ns, blob) in kept.items():
            assert os.stat(_path(store, key)).st_mtime_ns == mtime_ns
            assert open(_path(store, key), "rb").read() == blob
        if jobs == 1:
            assert sweep._points_computed == 2
