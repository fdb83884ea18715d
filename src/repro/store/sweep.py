"""The store-backed sweep: one family row, one loop.

Every store-backed family (``sweep``, ``chaos-sweep``, ``sharedbuf``,
``xscale`` and the incast fan-in sweep) is one :class:`Family` row, and
:func:`run_sweep` is the one loop that runs a grid of its points
through :func:`cached_sweep`.  This module imports only the store, the
scale profiles and the runner, and a row names the function that
simulates instead of importing it, so a sweep whose every point is
already stored reads its records back in the calling process — no
simulation stack, no worker pool.
"""

from __future__ import annotations

import gc
import inspect
import itertools
import os
import time
from dataclasses import dataclass
from importlib import import_module
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..experiments.runner import run_parallel
from ..experiments.scale import BENCH
from .runstore import RunStore, git_revision, make_provenance, open_store
from .spec import ExperimentSpec, RunConfig

__all__ = ["CRASH_AFTER_ENV", "Family", "cached_sweep", "run_sweep"]

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


@dataclass(frozen=True)
class Family:
    """One store-backed experiment family, as :func:`run_sweep` runs it.

    A point is a keyword mapping naming every parameter of ``spec``,
    whose ``spec(**point)`` is its content address; ``point`` names the
    ``function(point, provenance) -> row`` that simulates a missed one
    (``"package.module:function"``); ``row.from_payload`` reads a stored
    record back.  ``axes`` is the default grid, ``(axis, values)``
    pairs outermost first; a ``load`` axis of None is the profile's.
    """

    #: Experiment name the family's records are filed under.
    experiment: str
    spec: Callable[..., ExperimentSpec]
    point: str
    row: type
    axes: Tuple[Tuple[str, Any], ...]


def run_sweep(
    family: Family,
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
    config: Optional[RunConfig] = None,
    store: Optional[Union[RunStore, str]] = None,
) -> List[Any]:
    """One row per point of ``family`` over ``grid``, in grid order.

    ``grid`` overrides some of the row's default ``axes``; the points
    are their product, less any that pairs WFQ with MQ-ECN (round-based
    only, as in the paper).  A spec parameter no axis sets is
    ``config``'s field of that name (profile BENCH and seed 1 when
    unset), else the parameter's default — resolved here, once, so the
    value that keys a point is the value its worker simulates.  Each
    point also carries ``profile_events``, execution only and unkeyed.
    Points fan out over ``config.jobs`` workers with rows identical at
    every jobs level; with ``store`` or ``config.cache_dir`` stored
    points are read back (an interrupted sweep resumes) unless
    ``config.force``.
    """
    global _points_computed
    _points_computed = 0
    config = config or RunConfig()
    axes = dict(family.axes)
    unknown = set(grid or ()) - set(axes)
    if unknown:
        raise ValueError(f"{family.experiment} has no axis {sorted(unknown)}")
    axes.update(grid or {})
    profile = config.profile if config.profile is not None else BENCH
    if axes.get("load", ()) is None:
        axes["load"] = profile.loads
    resolved = {"profile": profile,
                "seed": config.seed if config.seed is not None else 1,
                "audit": bool(config.audit)}
    parameters = inspect.signature(family.spec).parameters
    fixed: Dict[str, Any] = {}
    for name, parameter in parameters.items():
        value = resolved.get(name, getattr(config, name, None))
        if value is None:
            value = parameter.default
        if name not in axes and value is not inspect.Parameter.empty:
            fixed[name] = value
    points = [dict(fixed, **dict(zip(axes, values)))
              for values in itertools.product(*axes.values())]
    points = [point for point in points
              if (point.get("scheduler_name"), point.get("scheme_name"))
              != ("wfq", "mq-ecn")]
    specs = [family.spec(**point) for point in points]
    for point in points:
        point["profile_events"] = config.profile_events
    return cached_sweep(
        points, specs, family.point, family.row.from_payload,
        open_store(config.cache_dir if store is None else store),
        config.force,
        config.jobs if config.jobs is not None else profile.jobs,
        profile.name if "profile" in parameters else None)
