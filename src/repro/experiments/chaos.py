"""Chaos experiments: PMSB's victim protection under faulty links.

The paper evaluates every scheme on a pristine fabric.  These
experiments re-ask its two headline questions with a deterministic
fault layer (:mod:`repro.sim.faults`) injected into the wires:

- **fig3 chaos variant** (:func:`chaos_victim`): the 1-vs-8 victim
  scenario with the bottleneck wire losing or corrupting packets — does
  per-port marking's collateral damage get better or worse when the
  victim also suffers real loss, and does PMSB's selective blindness
  still protect it?
- **fig8 chaos variant** (:func:`chaos_fair_share`): PMSB's 1:4
  weighted fair sharing under bottleneck loss.
- **loss-rate sweep** (:func:`run_chaos_sweep`): the §VI-B FCT workload
  for PMSB vs per-port vs per-queue across a grid of average loss
  rates, store-backed exactly like the clean sweep — chaos points key
  by their :class:`~repro.sim.faults.FaultSpec` set and cache/resume
  byte-identically at any ``--jobs`` level.

Determinism: faults draw from dedicated seeded streams, so every row
here is a pure function of its spec — the same guarantees (and tests)
as the clean experiments, loss included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Dict, List, Mapping, Optional, Sequence, Tuple,
                    Union)

from ..control.controller import ControllerSpec
from ..net.sharedbuf import SharedBufferSpec
from ..net.topology import TopologySpec
from ..scheduling.dwrr import DwrrScheduler
from ..sim.faults import FaultSpec, loss_spec
from ..store.runstore import RunStore
from ..store.spec import ExperimentSpec, RunConfig, extension_params
from ..store.sweep import cached_sweep, sweep_setup
from .largescale import (FctRow, resolve_fct_topology, run_fct_point,
                         topology_params)
from .scale import ScaleProfile
from .scenario import incast_flows, make_scheme, run_incast

__all__ = [
    "CHAOS_EXPERIMENT",
    "CHAOS_SCHEMES",
    "DEFAULT_LOSS_RATES",
    "ChaosFctRow",
    "ChaosVictimRow",
    "chaos_faults",
    "chaos_fair_share",
    "chaos_point_spec",
    "chaos_victim",
    "run_chaos_sweep",
]

#: Experiment family name in the run store.
CHAOS_EXPERIMENT = "fct-chaos"

#: The schemes the chaos sweep compares: PMSB against the two
#: conventional markers whose failure modes motivated it.
CHAOS_SCHEMES = ("pmsb", "per-port", "per-queue-standard")

#: Default loss-rate grid (0 = the clean baseline point).
DEFAULT_LOSS_RATES = (0.0, 1e-3, 1e-2)


def chaos_faults(model: str, loss_rate: float, links: str = "*",
                 salt: int = 0) -> Tuple[FaultSpec, ...]:
    """The fault set for one chaos point: one loss model at the given
    average rate over ``links``, or nothing at rate 0 (the baseline)."""
    if loss_rate == 0.0:
        return ()
    return (loss_spec(model, loss_rate, links=links, salt=salt),)


def _sorted_drops(drops: Mapping[str, Any]) -> Dict[str, int]:
    """Key-sorted copy, so fresh and cache-loaded rows export the same
    bytes (``to_json`` preserves dict insertion order)."""
    return {str(key): int(drops[key]) for key in sorted(drops)}


# -- static chaos variants (figs. 3 / 8 under loss) ---------------------------

@dataclass
class ChaosVictimRow:
    """One (scheme, model, loss rate) victim/fair-share measurement."""

    scheme: str
    model: str
    loss_rate: float
    queue1_gbps: float
    queue2_gbps: float
    fair_share_error: float
    #: Injected drops by reason over the faulted links.
    drops: Dict[str, int]


def _incast_under_loss(
    scheme_name: str,
    model: str,
    loss_rate: float,
    flows_queue2: int,
    port_threshold: float,
    link_rate: float,
    fault_seed: int,
    config: Optional[RunConfig],
) -> ChaosVictimRow:
    scheme = make_scheme(
        scheme_name, link_rate=link_rate, n_queues=2,
        port_threshold_packets=port_threshold,
    )
    # The loss sits on the bottleneck wire — downstream of the marker,
    # where a drop hurts exactly the flows the marker is judging.  It is
    # this experiment's variable, so it is passed explicitly and
    # ``config.faults`` is never consulted.
    result = run_incast(
        scheme, lambda: DwrrScheduler(2), incast_flows([1, flows_queue2]),
        link_rate=link_rate, config=config,
        faults=chaos_faults(model, loss_rate, links="bottleneck"),
        fault_seed=fault_seed,
    )
    q1, q2 = result.queue_gbps[0], result.queue_gbps[1]
    total = q1 + q2
    fair = total / 2.0
    error = abs(q1 - fair) / fair if total else 0.0
    drops = (_sorted_drops(result.chaos.stats()["drops"])
             if result.chaos is not None else {})
    return ChaosVictimRow(
        scheme=result.scheme, model=model, loss_rate=loss_rate,
        queue1_gbps=q1, queue2_gbps=q2, fair_share_error=error,
        drops=drops,
    )


def chaos_victim(
    scheme_name: str = "per-port",
    loss_rate: float = 1e-3,
    model: str = "iid-loss",
    flows_queue2: int = 8,
    port_threshold: float = 16.0,
    link_rate: float = 10e9,
    fault_seed: int = 1,
    config: Optional[RunConfig] = None,
) -> ChaosVictimRow:
    """Fig. 3's 1-vs-``flows_queue2`` victim scenario under wire loss.

    Same fabric and parameters as
    :func:`~repro.experiments.motivation.per_port_victim`, plus a loss
    model on the bottleneck wire.  Compare ``scheme_name="per-port"``
    against ``"pmsb"`` at matched loss rates to see whether selective
    blindness still protects the victim queue when the fabric is lossy.
    """
    return _incast_under_loss(scheme_name, model, loss_rate, flows_queue2,
                              port_threshold, link_rate, fault_seed, config)


def chaos_fair_share(
    scheme_name: str = "pmsb",
    loss_rate: float = 1e-3,
    model: str = "iid-loss",
    flows_queue2: int = 4,
    port_threshold: float = 12.0,
    link_rate: float = 10e9,
    fault_seed: int = 1,
    config: Optional[RunConfig] = None,
) -> ChaosVictimRow:
    """Fig. 8's 1:``flows_queue2`` fair-sharing scenario under loss —
    PMSB's weighted fair shares should degrade gracefully, not
    collapse, as the wire loss rate rises."""
    return _incast_under_loss(scheme_name, model, loss_rate, flows_queue2,
                              port_threshold, link_rate, fault_seed, config)


# -- the store-backed loss-rate sweep -----------------------------------------

@dataclass
class ChaosFctRow:
    """One (scheme, scheduler, load, model, loss rate) FCT measurement."""

    model: str
    loss_rate: float
    #: Injected drops by reason, summed over all faulted links.
    drops: Dict[str, int]
    fct: FctRow

    def stat(self, size_class, name: str) -> Optional[float]:
        """Delegate to :meth:`FctRow.stat` for printing/plotting."""
        return self.fct.stat(size_class, name)

    def to_payload(self) -> Dict[str, Any]:
        return {"model": self.model, "loss_rate": self.loss_rate,
                "drops": dict(self.drops), "fct": self.fct.to_payload()}

    @classmethod
    def from_payload(cls, data: Mapping[str, Any]) -> "ChaosFctRow":
        return cls(
            model=data["model"],
            loss_rate=data["loss_rate"],
            drops=_sorted_drops(data["drops"]),
            fct=FctRow.from_payload(data["fct"]),
        )


def chaos_point_spec(
    scheme_name: str,
    scheduler_name: str,
    load: float,
    profile: ScaleProfile,
    seed: int,
    model: str,
    loss_rate: float,
    audit: bool = False,
    topology: "Union[str, TopologySpec, None]" = None,
    shards: int = 1,
    controller: Optional[ControllerSpec] = None,
    shared_buffer: Optional[SharedBufferSpec] = None,
) -> ExperimentSpec:
    """The canonical identity of one chaos FCT point (store cache key).

    The full fault set is rendered into the params — alongside the
    human-readable ``model``/``loss_rate`` knobs — so any change to how
    :func:`chaos_faults` shapes a model re-keys the affected points.
    Default topologies render to the historical ``"leaf-spine"`` param,
    keeping pre-redesign keys unchanged (see
    :func:`~repro.experiments.largescale.topology_params`).
    """
    faults = chaos_faults(model, loss_rate)
    params: Dict[str, Any] = topology_params(topology)
    params.update({
        "model": model,
        "loss_rate": loss_rate,
        "faults": tuple(spec.to_param() for spec in faults),
    })
    params.update(extension_params((), controller, shared_buffer))
    # Sharded execution is keyed like the clean FCT sweep: fault
    # streams replay identically at any shard count, but the execution
    # substrate differs, so shards > 1 re-keys while shards=1 keys stay
    # byte-for-byte what they were before the sharding layer existed.
    if shards and shards > 1:
        params["shards"] = int(shards)
    return ExperimentSpec.create(
        CHAOS_EXPERIMENT, scheme=scheme_name, scheduler=scheduler_name,
        load=load, seed=seed, profile=profile, audit=audit, params=params,
    )


def _chaos_point(point, provenance: Dict[str, Any]) -> ChaosFctRow:
    """Simulate one chaos sweep point (the ``compute`` of
    :func:`~repro.store.sweep.cached_sweep`)."""
    (scheme_name, scheduler_name, load, profile, seed, model, loss_rate,
     audit, topology, shards, controller, shared_buffer) = point
    fault_stats: Dict[str, Any] = {}
    fct = run_fct_point(
        scheme_name, scheduler_name, load, profile, seed,
        topology=topology,
        config=RunConfig(audit=audit, shards=shards,
                         shared_buffer=shared_buffer),
        provenance_out=provenance,
        faults=chaos_faults(model, loss_rate),
        fault_stats_out=fault_stats, controller=controller,
    )
    return ChaosFctRow(
        model=model, loss_rate=loss_rate,
        drops=_sorted_drops(fault_stats.get("drops", {})), fct=fct)


def run_chaos_sweep(
    scheme_names: Sequence[str] = CHAOS_SCHEMES,
    scheduler_name: str = "dwrr",
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
    model: str = "iid-loss",
    profile: Optional[ScaleProfile] = None,
    seed: Optional[int] = None,
    config: Optional[RunConfig] = None,
    store: Optional[Union[RunStore, str]] = None,
    topology: Union[str, TopologySpec, None] = None,
) -> List[ChaosFctRow]:
    """The chaos matrix: every scheme × load × loss rate.

    All schemes at a given (load, seed, loss rate) see the same flow
    arrivals *and* the same per-link fault streams (streams key on
    seed, salt and link name — not on the scheme), so comparisons are
    paired under identical loss patterns.  Points fan out over worker
    processes and cache/resume exactly like
    :func:`~repro.experiments.largescale.run_fct_sweep`.  The loss grid
    is this sweep's variable, so ``config.faults`` is not consulted;
    ``config.controller`` and ``config.shared_buffer`` are, and
    ``topology=None`` means ``config.topology``.
    """
    config, profile, seed, jobs, store, force = sweep_setup(
        config, profile, seed, store)
    (topology,) = config.resolve(topology=topology)
    topology_spec = resolve_fct_topology(topology)
    # A point is chaos_point_spec's arguments, in order.
    points = [
        (name, scheduler_name, load, profile, seed, model, loss_rate,
         bool(config.audit), topology_spec, config.shards,
         config.controller, config.shared_buffer)
        for loss_rate in loss_rates
        for load in profile.loads
        for name in scheme_names
        if not (scheduler_name == "wfq" and name == "mq-ecn")
    ]
    return cached_sweep(
        points, [chaos_point_spec(*point) for point in points],
        f"{__name__}:_chaos_point", ChaosFctRow.from_payload,
        store, force, jobs, profile.name)
