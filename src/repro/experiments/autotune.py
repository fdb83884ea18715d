"""X-AUTOTUNE: static-optimal vs auto-tuned PMSB under load shifts.

The paper sets PMSB's port threshold once, from Theorem IV.1, for one
design load.  This family asks what that costs when the load *moves*:
each point runs a two-phase workload on the §VI-B leaf-spine fabric —
a Poisson arrival at ``load_lo``, then (starting at the shift time
``t_shift``, the last phase-A arrival) a second, independent arrival
process at ``load_hi`` — and measures small-flow tail FCT across both
phases.

A candidate is a two-phase threshold schedule ``(k0, k1)``: a
:class:`~repro.control.CemController` holds the port threshold at
``k0`` until ``t_shift`` and ``k1`` after.  The *static* family is the
diagonal ``k0 == k1`` (a controller committing an unchanged value
changes no marking decision, so diagonal dynamics are identical to an
uncontrolled run at that threshold).  :func:`run_autotune` evaluates
the whole diagonal, then lets
:func:`~repro.control.cross_entropy_search` explore the off-diagonal
plane with the diagonal pre-seeded into its memo table — the tuned
winner therefore can never score worse than the best static threshold,
and every candidate evaluation is cached in the content-addressed run
store, so interrupted searches resume and repeated searches are free
at any ``--jobs`` level.

``chaos=True`` adds the load shift's ugly cousin: a spine uplink flap
(down for 2 ms right after the shift), exercising the controller under
capacity loss as well as load change.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..control.cem import CemResult, cross_entropy_search
from ..control.controller import ControllerRuntime, ControllerSpec
from ..metrics.fct import FctCollector, SizeClass
from ..net.sharedbuf import SharedBufferSpec
from ..net.topology import TopologySpec
from ..sim.audit import FabricAuditor
from ..sim.engine import Simulator
from ..sim.faults import FaultScheduler, FaultSpec
from ..sim.rng import make_rng, stable_hash
from ..store.runstore import RunStore
from ..store.spec import ExperimentSpec, RunConfig, extension_params
from ..store.sweep import cached_sweep, sweep_setup
from ..transport.endpoints import open_flow
from ..workloads.distributions import PAPER_MIX
from ..workloads.generator import PoissonFlowGenerator
from .largescale import (N_SERVICES, _make_scheduler_factory,
                         fabric_scheme, resolve_fct_topology,
                         topology_params)
from .scale import BENCH, ScaleProfile

__all__ = ["AutotuneRow", "AutotuneReport", "autotune_point_spec",
           "run_autotune_point", "run_autotune", "DEFAULT_GRID",
           "CONTROLLER_PERIOD"]

#: Port-threshold grid (packets) the search runs over — brackets the
#: paper's Theorem IV.1 design point of 12.
DEFAULT_GRID = (4.0, 8.0, 12.0, 16.0, 24.0, 32.0)

#: Controller evaluation period used by every autotune candidate.
CONTROLLER_PERIOD = 500e-6

#: The chaos leg's flap: one spine uplink goes down for 2 ms shortly
#: after the load shift (``start`` is offset to ``t_shift`` at run
#: time, keeping the spec itself seed-independent).
_FLAP_DOWN = 0.5e-3
_FLAP_UP = 2.5e-3


@dataclass
class AutotuneRow:
    """One evaluated schedule ``(k0, k1)`` on one load-shift scenario."""

    k0: float
    k1: float
    scheduler: str
    load_lo: float
    load_hi: float
    chaos: bool
    seed: int
    n_flows: int
    completed: int
    #: Load-shift time (last phase-A arrival, seconds).
    t_shift: float
    #: The search objective: small-flow p99 FCT (seconds; falls back to
    #: overall p99 when the sample has no small class).
    objective: float
    small_mean: Optional[float]
    small_p99: Optional[float]
    overall_mean: float
    overall_p99: float
    #: Controller activity (ticks, changes staged) for provenance.
    controller: Dict[str, int]

    @property
    def static(self) -> bool:
        return self.k0 == self.k1

    def to_payload(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_payload(cls, data: Mapping[str, Any]) -> "AutotuneRow":
        return cls(**data)


def autotune_point_spec(
    k0: float,
    k1: float,
    scheduler_name: str,
    load_lo: float,
    load_hi: float,
    profile: ScaleProfile,
    seed: int,
    chaos: bool = False,
    audit: bool = False,
    topology: "Union[str, TopologySpec, None]" = None,
    shared_buffer: Optional[SharedBufferSpec] = None,
) -> ExperimentSpec:
    """Content address of one candidate evaluation.

    ``t_shift`` is *derived* (from the seed's phase-A arrivals), so it
    deliberately stays out of the key; the controller period is pinned
    here so a future period change invalidates old cache entries.  The
    historical default fabric (the profile's leaf-spine) adds no
    topology params, so pre-existing cache keys are untouched; any
    explicit non-default :class:`~repro.net.topology.TopologySpec`
    re-keys its points.
    """
    params: Dict[str, Any] = {"k0": float(k0), "k1": float(k1),
                              "load_hi": float(load_hi),
                              "chaos": bool(chaos),
                              "period": CONTROLLER_PERIOD}
    if topology is not None:
        topo = resolve_fct_topology(topology)
        if not topo.is_default:
            params.update(topology_params(topo))
    params.update(extension_params(shared_buffer=shared_buffer))
    return ExperimentSpec.create(
        "autotune-point", scheme="pmsb", scheduler=scheduler_name,
        load=load_lo, seed=seed, profile=profile, audit=audit,
        params=params,
    )


def run_autotune_point(
    k0: float,
    k1: float,
    scheduler_name: str = "dwrr",
    load_lo: float = 0.3,
    load_hi: float = 0.7,
    profile: Optional[ScaleProfile] = None,
    seed: int = 1,
    chaos: bool = False,
    audit: bool = False,
    provenance_out: Optional[Dict[str, Any]] = None,
    topology: "Union[str, TopologySpec, None]" = None,
    shared_buffer: Optional[SharedBufferSpec] = None,
) -> AutotuneRow:
    """Simulate one schedule candidate on the two-phase workload."""
    if profile is None:
        profile = BENCH
    wall_start = time.perf_counter()
    topo = resolve_fct_topology(topology)
    scheme = fabric_scheme("pmsb", topo, profile)
    sim = Simulator()
    auditor = FabricAuditor(sim) if audit else None
    network = topo.build(
        sim, _make_scheduler_factory(scheduler_name), scheme.marker_factory,
        shared_buffer=shared_buffer, default_fabric=profile.fabric,
        link_rate=profile.link_rate,
    )
    if auditor is not None:
        auditor.attach_network(network)

    # Two independent arrival processes; phase B starts where phase A's
    # arrivals end.  Phase-B flow ids are renumbered past phase A's so
    # ECMP path choices stay a pure function of the combined schedule.
    hosts = [h.host_id for h in network.hosts]
    size_distribution = PAPER_MIX.scaled(profile.size_scale)
    link_rate = topo.physics(profile.link_rate)[0]
    flows_a = PoissonFlowGenerator(
        make_rng(seed), hosts, size_distribution, load=load_lo,
        link_rate_bps=link_rate, n_services=N_SERVICES,
    ).generate(n_flows=profile.largescale_flows)
    t_shift = flows_a[-1].start_time
    flows_b = PoissonFlowGenerator(
        make_rng(stable_hash(seed, 1)), hosts, size_distribution,
        load=load_hi, link_rate_bps=link_rate,
        n_services=N_SERVICES, start_time=t_shift,
    ).generate(n_flows=profile.largescale_flows)
    flows = flows_a + [
        replace(flow, flow_id=flow.flow_id + len(flows_a))
        for flow in flows_b
    ]

    if chaos:
        flap = FaultSpec(model="flap", links="leaf0->spine0",
                         down=_FLAP_DOWN, up=_FLAP_UP, start=t_shift)
        FaultScheduler(sim, [flap], seed=seed).apply(network)

    controller = ControllerSpec(name="cem", period=CONTROLLER_PERIOD,
                                t1=t_shift, k0=k0, k1=k1)
    runtime = ControllerRuntime(sim, network.all_marked_ports(),
                                controller.build(), controller.period)
    collector = FctCollector(size_scale=profile.size_scale)
    for flow in flows:
        open_flow(network, flow, scheme.transport_config(init_cwnd=16.0),
                  on_complete=collector.on_complete)
    runtime.start()

    deadline = flows[-1].start_time + profile.time_cap
    chunk = max(profile.time_cap / 100.0, 1e-3)
    while len(collector) < len(flows) and sim.now < deadline:
        sim.run(until=min(sim.now + chunk, deadline))
    runtime.stop()
    if auditor is not None:
        auditor.verify_fabric()

    if provenance_out is not None:
        provenance_out["elapsed_s"] = time.perf_counter() - wall_start
        provenance_out["engine"] = {
            "events_processed": sim.events_processed,
        }

    overall = collector.summary()
    small = collector.summary_by_class()[SizeClass.SMALL]
    objective = small.p99 if small is not None else overall.p99
    return AutotuneRow(
        k0=float(k0), k1=float(k1), scheduler=scheduler_name,
        load_lo=load_lo, load_hi=load_hi, chaos=chaos, seed=seed,
        n_flows=len(flows), completed=len(collector), t_shift=t_shift,
        objective=objective,
        small_mean=small.mean if small is not None else None,
        small_p99=small.p99 if small is not None else None,
        overall_mean=overall.mean, overall_p99=overall.p99,
        controller=runtime.stats(),
    )


def _autotune_point(point, provenance: Dict[str, Any]) -> AutotuneRow:
    """Simulate one candidate (the ``compute`` of
    :func:`~repro.store.sweep.cached_sweep`)."""
    (k0, k1, scheduler_name, load_lo, load_hi, profile, seed, chaos,
     audit, topology, shared_buffer) = point
    return run_autotune_point(
        k0, k1, scheduler_name, load_lo, load_hi, profile, seed,
        chaos=chaos, audit=audit, provenance_out=provenance,
        topology=topology, shared_buffer=shared_buffer,
    )


@dataclass
class AutotuneReport:
    """Outcome of one full static-vs-tuned comparison."""

    grid: Tuple[float, ...]
    #: Diagonal (static) evaluations, in grid order.
    static_rows: List[AutotuneRow]
    #: Best static threshold and its objective.
    best_static: AutotuneRow
    #: Best schedule over everything the search evaluated.
    best_tuned: AutotuneRow
    #: Distinct candidates evaluated (diagonal + CEM exploration).
    n_evaluations: int
    #: Percent improvement of tuned over static best (>= 0 by
    #: construction — the diagonal is in the search's memo table).
    improvement_percent: float

    def to_payload(self) -> Dict[str, Any]:
        return {
            "grid": list(self.grid),
            "static_rows": [row.to_payload() for row in self.static_rows],
            "best_static": self.best_static.to_payload(),
            "best_tuned": self.best_tuned.to_payload(),
            "n_evaluations": self.n_evaluations,
            "improvement_percent": self.improvement_percent,
        }


def run_autotune(
    grid: Sequence[float] = DEFAULT_GRID,
    scheduler_name: str = "dwrr",
    load_lo: float = 0.3,
    load_hi: float = 0.7,
    profile: Optional[ScaleProfile] = None,
    seed: Optional[int] = None,
    chaos: bool = False,
    rounds: int = 3,
    population: int = 6,
    config: Optional[RunConfig] = None,
    store: Optional[Union[RunStore, str]] = None,
    topology: Union[str, TopologySpec, None] = None,
) -> AutotuneReport:
    """Static sweep + cross-entropy search over the schedule plane.

    Phase 1 evaluates the static diagonal ``(k, k)`` for every grid
    threshold (in parallel across ``config.jobs`` workers — each point
    is an independent simulation).  Phase 2 runs
    :func:`~repro.control.cross_entropy_search` over ``grid × grid``
    with the diagonal pre-seeded, so the returned ``best_tuned`` is the
    best of *everything* evaluated and can only match or beat
    ``best_static``.  With a ``store`` (or ``config.cache_dir``) every
    candidate is cached by :func:`autotune_point_spec`, making the whole
    search resumable.  Every candidate carries its own controller and
    the chaos leg its own flap, so ``config.controller`` and
    ``config.faults`` are not consulted; ``config.shared_buffer`` is,
    and ``topology=None`` means ``config.topology``.
    """
    config, profile, seed, jobs, store, force = sweep_setup(
        config, profile, seed, store)
    grid = tuple(sorted(set(float(k) for k in grid)))
    (topology,) = config.resolve(topology=topology)
    topology_spec = resolve_fct_topology(topology)

    def evaluate_all(schedules, jobs: Optional[int]) -> List[AutotuneRow]:
        # A point is autotune_point_spec's arguments, in order.
        points = [(k0, k1, scheduler_name, load_lo, load_hi, profile, seed,
                   chaos, bool(config.audit), topology_spec,
                   config.shared_buffer) for k0, k1 in schedules]
        return cached_sweep(
            points, [autotune_point_spec(*point) for point in points],
            f"{__name__}:_autotune_point", AutotuneRow.from_payload,
            store, force, jobs, profile.name)

    static_rows = evaluate_all([(k, k) for k in grid], jobs)
    rows: Dict[Tuple[float, float], AutotuneRow] = {
        (row.k0, row.k1): row for row in static_rows
    }

    def evaluate(k0: float, k1: float) -> float:
        (row,) = evaluate_all([(k0, k1)], 1)
        rows[(k0, k1)] = row
        return row.objective

    result: CemResult = cross_entropy_search(
        evaluate, grid, seed=stable_hash(seed, 0xCE),
        rounds=rounds, population=population,
        evaluated={(row.k0, row.k1): row.objective for row in static_rows},
    )
    best_static = min(static_rows,
                      key=lambda row: (row.objective, row.k0))
    best_tuned = rows[result.best]
    improvement = 0.0
    if best_static.objective > 0:
        improvement = (1.0 - best_tuned.objective / best_static.objective) \
            * 100.0
    return AutotuneReport(
        grid=grid, static_rows=static_rows, best_static=best_static,
        best_tuned=best_tuned, n_evaluations=result.n_evaluations,
        improvement_percent=improvement,
    )
