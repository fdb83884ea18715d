"""Parallel experiment runner.

The Fig. 16–27 sweeps are embarrassingly parallel: every (scheme, load,
seed) point builds its own :class:`~repro.sim.engine.Simulator` and its
own RNG from an explicit seed, so runs share no state.
:func:`run_parallel` maps a worker over such configs on a
``ProcessPoolExecutor`` while preserving determinism:

- **ordered collection** — results come back in config order regardless
  of which worker finished first (``Executor.map`` semantics);
- **deterministic seeding** — randomness must flow only from the config
  (:func:`seed_for` derives stable per-config seeds from a base seed), so
  the same configs give byte-identical results at any ``--jobs`` level;
- **graceful fallback** — ``jobs=1``, a single config, a platform
  without ``fork``, or a pool-startup failure all degrade to a plain
  serial loop with identical results.

Workers must be module-level (picklable) functions and configs picklable
values — the same constraint ``multiprocessing`` always imposes.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, Optional, TypeVar

from ..sim.rng import stable_hash

__all__ = ["available_jobs", "run_parallel", "seed_for"]

ConfigT = TypeVar("ConfigT")
ResultT = TypeVar("ResultT")


def available_jobs() -> int:
    """Worker processes this machine can usefully run (>= 1).

    Containerised runners usually pin the process to a CPU subset;
    ``sched_getaffinity`` sees that mask where ``cpu_count`` reports the
    whole machine and oversubscribes.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without affinity (macOS, Windows)
        return os.cpu_count() or 1


def seed_for(base_seed: int, index: int) -> int:
    """A stable, well-mixed per-config seed.

    Adjacent small integers make poor PRNG seeds; this mixes
    ``(base_seed, index)`` through the same splitmix64 finalizer ECMP
    hashing uses, so config ``i`` sees the same stream no matter which
    process runs it or in which order.
    """
    return stable_hash(base_seed, index) & 0x7FFFFFFF


def run_parallel(
    configs: Iterable[ConfigT],
    worker: Callable[[ConfigT], ResultT],
    jobs: Optional[int] = None,
) -> List[ResultT]:
    """Map ``worker`` over ``configs``, possibly across processes.

    Returns ``[worker(c) for c in configs]`` — same values, same order —
    computed with up to ``jobs`` forked worker processes.  ``jobs=None``
    or ``jobs=1`` runs serially in-process (no pool, no pickling);
    ``jobs <= 0`` means "all cores" (:func:`available_jobs`).
    """
    config_list = list(configs)
    if jobs is None:
        jobs = 1
    if jobs <= 0:
        jobs = available_jobs()
    jobs = min(jobs, len(config_list))
    if jobs <= 1:
        return [worker(config) for config in config_list]
    # The pool machinery is imported only by a run that fans out.
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return [worker(config) for config in config_list]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    try:
        context = multiprocessing.get_context("fork")
        pool = ProcessPoolExecutor(max_workers=jobs, mp_context=context)
    except (OSError, PermissionError, RuntimeError):
        # Exotic platforms can refuse to even build a fork context; the
        # sweep still completes.
        return [worker(config) for config in config_list]
    try:
        with pool:
            return list(pool.map(worker, config_list))
    except (BrokenProcessPool, PermissionError):
        # Sandboxes can refuse process creation only once the first
        # worker actually spawns.  Only pool-infrastructure failures
        # degrade to the serial path — an exception raised *by the
        # worker itself* (e.g. the run store's injected-crash hook)
        # propagates unchanged, because retrying it serially would
        # silently mask real failures.
        return [worker(config) for config in config_list]
