"""The store-backed sweep boundary: hits answered here, misses fanned out.

Every store-backed family (``sweep``, ``chaos-sweep``, ``xscale``,
``sharedbuf``, ``incast_sweep``) runs its points through
:func:`cached_sweep`.  This module imports only the store, the scale
profiles and the runner, and names the function that simulates instead
of importing it, so a sweep whose every point is already stored reads
its records back in the calling process — no simulation stack, no
worker pool.
"""

from __future__ import annotations

import gc
import os
import time
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..experiments.runner import run_parallel
from ..experiments.scale import BENCH, ScaleProfile
from .runstore import RunStore, git_revision, make_provenance, open_store
from .spec import ExperimentSpec, RunConfig

__all__ = ["CRASH_AFTER_ENV", "cached_sweep", "sweep_setup"]

#: Test/CI hook: when set to N > 0, a store-backed sweep raises after
#: this process has computed (and persisted) N fresh points — a
#: deterministic stand-in for "the job was killed mid-sweep" that the
#: resume tests and the CI resume job rely on.  Cached points do not
#: count, so a resumed run completes even with the variable still set
#: lower than the remaining work.
CRASH_AFTER_ENV = "REPRO_SWEEP_CRASH_AFTER"

_points_computed = 0


def _note_point_computed() -> None:
    global _points_computed
    _points_computed += 1
    limit = int(os.environ.get(CRASH_AFTER_ENV, "0") or "0")
    if limit and _points_computed >= limit:
        raise RuntimeError(
            f"injected crash: {CRASH_AFTER_ENV}={limit} and this process "
            f"computed {_points_computed} points")


def sweep_setup(config: Optional[RunConfig], profile: Optional[ScaleProfile],
                seed: Optional[int], store: Optional[Union[RunStore, str]]):
    """Resolve what every store-backed sweep shares — ``(config, profile,
    seed, jobs, store, force)``, ``store`` being the sweep's one
    :class:`RunStore` or None — and re-arm the crash hook."""
    global _points_computed
    _points_computed = 0
    config = config or RunConfig()
    if profile is None:
        profile = config.profile if config.profile is not None else BENCH
    if seed is None:
        seed = config.seed if config.seed is not None else 1
    jobs = config.jobs if config.jobs is not None else profile.jobs
    if store is None:  # not `or`: an empty RunStore is falsy
        store = config.cache_dir
    return (config, profile, seed, jobs, open_store(store),
            config.force or not config.resume)


def _compute_point(job) -> Any:
    """Module-level (picklable) worker: simulate one missed point and
    persist it before returning."""
    compute, point, spec, store, profile_name = job
    provenance: Dict[str, Any] = {}
    row = compute(point, provenance)
    # A finished fabric (simulator, ports, links, pending events) is a
    # web of reference cycles that only a full collection frees: free
    # it now, so a worker holds one point's fabric at a time rather than
    # however many the collector has not reached yet.
    gc.collect()
    if store is not None:
        store.put(spec, row.to_payload(), make_provenance(
            profile_name=profile_name,
            elapsed_s=provenance.get("elapsed_s"),
            engine=provenance.get("engine"),
        ))
        _note_point_computed()
    return row


def cached_sweep(
    points: Sequence[Any],
    specs: Sequence[ExperimentSpec],
    compute: str,
    load_row: Callable[[Any], Any],
    store: Optional[RunStore],
    force: bool = False,
    jobs: Optional[int] = None,
    profile_name: Optional[str] = None,
) -> List[Any]:
    """One row per point, in point order, simulating only what the store
    lacks.

    ``specs[i]`` is the content address of ``points[i]``.  With a
    ``store`` (and not ``force``) a hit is answered in this process as
    ``load_row(record.result)``.  The misses — every point without a
    store — go through :func:`~repro.experiments.runner.run_parallel`
    to ``compute``, the ``"package.module:function"`` name of a
    module-level ``function(point, provenance_out) -> row``.  It is a
    name, not the function, so that the module that simulates is
    imported only when something misses: once, here, before the workers
    fork.  A worker persists its fresh ``row.to_payload()`` atomically
    *before* returning, so a crash between points — real or injected
    via :data:`CRASH_AFTER_ENV` — loses at most the points in flight.
    Workers on different points write different keys, so the store
    stays consistent and the rows identical at any ``jobs`` level.  If
    a worker is killed, the sweep is finished in this process: what the
    pool's workers persisted before it broke is read back, and only the
    points still missing from the store are computed.
    """
    started = time.time()
    rows: List[Any] = [None] * len(points)
    misses = []
    for index, spec in enumerate(specs):
        record = store.get(spec) if store is not None and not force else None
        if record is not None:
            rows[index] = load_row(record.result)
        else:
            misses.append(index)
    if misses:
        module_name, _, function_name = compute.partition(":")
        function = getattr(import_module(module_name), function_name)
        if store is not None:
            # Resolved once here; forked workers inherit the cached value
            # instead of each spawning `git rev-parse`.
            git_revision()

        def finish(job) -> Any:
            # Written since this sweep started: a dead pool's worker
            # computed it (``force`` may leave older records in place).
            record = store.get(job[2]) if store is not None else None
            if record is not None and record.provenance.get(
                    "wall_time_unix", 0.0) >= started:
                return load_row(record.result)
            return _compute_point(job)

        fresh = run_parallel(
            [(function, points[index], specs[index], store, profile_name)
             for index in misses],
            _compute_point, jobs=jobs, finish=finish)
        for index, row in zip(misses, fresh):
            rows[index] = row
    return rows
