"""Unit tests for the parallel experiment runner."""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.experiments.runner import available_jobs, run_parallel


def square(x):
    return x * x


def pid_of(_config):
    return os.getpid()


def seeded_stream(config):
    """A worker whose output depends only on its config — the contract
    every sweep worker must satisfy for jobs-invariant results."""
    import random

    base_seed, index = config
    rng = random.Random(f"{base_seed}/{index}")
    return [rng.random() for _ in range(5)]


#: ``(parent pid, barrier)`` for :func:`meet_peer`, set by the test
#: before the pool forks so the workers inherit it.
_RENDEZVOUS = None


def meet_peer(_config):
    """Return from a worker only once another task is in flight too."""
    parent, barrier = _RENDEZVOUS
    if os.getpid() != parent:
        barrier.wait(timeout=60)
    return os.getpid()


class TestRunParallel:
    def test_serial_preserves_order(self):
        assert run_parallel(range(10), square, jobs=1) == [
            x * x for x in range(10)]

    def test_default_is_serial(self):
        assert run_parallel([3, 4], square) == [9, 16]

    def test_parallel_preserves_order(self):
        assert run_parallel(range(20), square, jobs=4) == [
            x * x for x in range(20)]

    def test_jobs_zero_means_all_cores(self):
        assert run_parallel(range(4), square, jobs=0) == [0, 1, 4, 9]

    def test_empty_configs(self):
        assert run_parallel([], square, jobs=4) == []

    def test_single_config_stays_in_process(self):
        assert run_parallel([7], pid_of, jobs=8) == [os.getpid()]

    def test_parallel_uses_worker_processes(self, monkeypatch):
        # Each task waits at a two-party barrier, so both must run at
        # once in two workers; run one after the other they time out.
        monkeypatch.setattr(f"{__name__}._RENDEZVOUS",
                            (os.getpid(), multiprocessing.Barrier(2)))
        pids = run_parallel(range(2), meet_peer, jobs=2)
        if os.getpid() in pids:
            pytest.skip("platform fell back to serial execution")
        assert len(set(pids)) == 2

    def test_results_identical_across_job_counts(self):
        configs = [(42, index) for index in range(12)]
        serial = run_parallel(configs, seeded_stream, jobs=1)
        parallel = run_parallel(configs, seeded_stream, jobs=4)
        assert serial == parallel

    def test_generator_configs_are_materialized(self):
        assert run_parallel((x for x in range(5)), square, jobs=2) == [
            0, 1, 4, 9, 16]


def boom(config):
    if config == 3:
        raise RuntimeError("worker failure")
    return config


class TestWorkerExceptions:
    """Worker-raised exceptions must surface, not trigger the serial
    fallback — the run store's injected-crash hook depends on it."""

    def test_propagates_serial(self):
        with pytest.raises(RuntimeError, match="worker failure"):
            run_parallel(range(5), boom, jobs=1)

    def test_propagates_parallel(self):
        with pytest.raises(RuntimeError, match="worker failure"):
            run_parallel(range(5), boom, jobs=2)


class TestAvailableJobs:
    def test_at_least_one(self):
        assert available_jobs() >= 1

    def test_respects_cpu_affinity_mask(self, monkeypatch):
        """Containerised runners pin the process to a CPU subset;
        ``available_jobs`` must report the mask, not the whole machine."""
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert available_jobs() == 3

    def test_empty_affinity_mask_degrades_to_one(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(), raising=False)
        assert available_jobs() == 1

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert available_jobs() == 7
