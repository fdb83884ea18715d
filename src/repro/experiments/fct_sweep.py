"""Sweep level of the §VI-B FCT family (Figs. 16–27): the row, the point
identity and the store-backed sweep.

:mod:`repro.experiments.largescale` simulates one point
(:func:`~repro.experiments.largescale.run_fct_point`) and re-exports
everything here; this half imports nothing that simulates — specs,
scale profiles and the store only — so a sweep whose points are all
stored answers without loading the transports, the workload generators
or numpy (:func:`~repro.store.sweep.cached_sweep`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import (TYPE_CHECKING, Any, Dict, List, Mapping, Optional,
                    Sequence, Union)

from ..metrics.fct import SizeClass
from ..metrics.stats import SummaryStats
from ..net.topology import TopologySpec, as_topology
from ..store.runstore import RunStore
from ..store.spec import ExperimentSpec, RunConfig, extension_params
from ..store.sweep import cached_sweep, sweep_setup
from .scale import ScaleProfile

if TYPE_CHECKING:  # pragma: no cover
    from ..control.controller import ControllerSpec
    from ..net.sharedbuf import SharedBufferSpec
    from ..sim.faults import FaultSpec

__all__ = ["FctRow", "fct_point_spec", "topology_params",
           "resolve_fct_topology", "run_fct_sweep", "reduction_percent",
           "LARGESCALE_SCHEMES"]

#: Scheme line-up of the DWRR figures; WFQ drops "mq-ecn".
LARGESCALE_SCHEMES = ("pmsb", "pmsb-e", "mq-ecn", "tcn")


@dataclass
class FctRow:
    """One (scheme, scheduler, load) measurement."""

    scheme: str
    scheduler: str
    load: float
    n_flows: int
    completed: int
    overall: SummaryStats
    small: Optional[SummaryStats]
    medium: Optional[SummaryStats]
    large: Optional[SummaryStats]

    def stat(self, size_class: Optional[SizeClass], name: str) -> Optional[float]:
        """Fetch one statistic, e.g. ``row.stat(SizeClass.SMALL, 'p99')``."""
        summary = {
            None: self.overall,
            SizeClass.SMALL: self.small,
            SizeClass.MEDIUM: self.medium,
            SizeClass.LARGE: self.large,
        }[size_class]
        if summary is None:
            return None
        return getattr(summary, name)

    def to_payload(self) -> Dict[str, Any]:
        """A JSON-able dict for run-store persistence (inverse of
        :meth:`from_payload`; floats survive the round trip exactly)."""
        return asdict(self)

    @classmethod
    def from_payload(cls, data: Mapping[str, Any]) -> "FctRow":
        def stats(block: Optional[Mapping[str, Any]]) -> Optional[SummaryStats]:
            return None if block is None else SummaryStats(**block)

        return cls(
            scheme=data["scheme"],
            scheduler=data["scheduler"],
            load=data["load"],
            n_flows=data["n_flows"],
            completed=data["completed"],
            overall=stats(data["overall"]),
            small=stats(data["small"]),
            medium=stats(data["medium"]),
            large=stats(data["large"]),
        )


#: The bare legacy ``"fat-tree"`` string has always meant arity 4, with
#: the arity spelled out in its cache key; ``"fat-tree:k=6"`` picks
#: another.
_LEGACY_FAT_TREE = TopologySpec(preset="fat-tree", k=4)


def topology_params(topology: Union[str, TopologySpec, None]) -> Dict[str, Any]:
    """Topology contribution to a point spec's params.

    Renders default fabrics to the *historical* param shapes (see
    :meth:`~repro.net.topology.TopologySpec.cache_params`), so every
    pre-redesign run-store key is unchanged; non-default
    :class:`~repro.net.topology.TopologySpec` instances add a canonical
    ``topology_params`` tuple.
    """
    if topology is None:
        return {"topology": "leaf-spine"}
    if topology == "fat-tree":
        topology = _LEGACY_FAT_TREE
    if isinstance(topology, TopologySpec):
        return topology.cache_params()
    return {"topology": topology}


def fct_point_spec(
    scheme_name: str,
    scheduler_name: str,
    load: float,
    profile: ScaleProfile,
    seed: int,
    audit: bool = False,
    topology: Union[str, TopologySpec, None] = "leaf-spine",
    faults: Sequence[FaultSpec] = (),
    controller: Optional[ControllerSpec] = None,
    shards: int = 1,
    shared_buffer: Optional[SharedBufferSpec] = None,
) -> ExperimentSpec:
    """The canonical identity of one §VI-B FCT point (store cache key).

    Everything that determines the row's numbers is in here — including
    the fabric (``topology`` accepts the legacy ``"leaf-spine"`` /
    ``"fat-tree"`` strings or a
    :class:`~repro.net.topology.TopologySpec`, rendered through
    :func:`topology_params` so default fabrics keep their historical
    keys), any injected :class:`~repro.sim.faults.FaultSpec` set, any
    :class:`~repro.control.ControllerSpec` and any
    :class:`~repro.net.sharedbuf.SharedBufferSpec`, rendered by
    :func:`~repro.store.spec.extension_params` so chaos, closed-loop and
    shared-memory points key differently from clean ones (and a point
    without them keys exactly as before these layers existed);
    execution mechanics (worker count, profiler, cache location)
    deliberately are not — see :class:`~repro.store.ExperimentSpec`.
    """
    params = topology_params(topology)
    params.update(extension_params(faults or (), controller, shared_buffer))
    # Sharded points key separately (incast ties make them
    # tolerance-equal, not byte-equal); shards=1 keys are untouched.
    if shards and shards > 1:
        params["shards"] = int(shards)
    return ExperimentSpec.create(
        "fct-point", scheme=scheme_name, scheduler=scheduler_name,
        load=load, seed=seed, profile=profile, audit=audit, params=params,
    )


def resolve_fct_topology(
    topology: Union[str, TopologySpec, None],
) -> TopologySpec:
    """Resolve a runner's ``topology`` argument to a built spec.

    None is the paper's leaf-spine, its shape from the scale profile.
    """
    if topology is None:
        return TopologySpec()
    if topology == "fat-tree":
        return _LEGACY_FAT_TREE
    spec = as_topology(topology)
    if spec.preset == "single-bottleneck":
        raise ValueError(
            "FCT experiments need a multi-host fabric; "
            "single-bottleneck is for incast scenarios")
    return spec


def run_fct_sweep(
    scheme_names: Sequence[str] = LARGESCALE_SCHEMES,
    scheduler_name: str = "dwrr",
    profile: Optional[ScaleProfile] = None,
    seed: Optional[int] = None,
    config: Optional[RunConfig] = None,
    store: Optional[Union[RunStore, str]] = None,
    faults: Optional[Sequence[FaultSpec]] = None,
    controller: Optional[ControllerSpec] = None,
    topology: Union[str, TopologySpec, None] = None,
) -> List[FctRow]:
    """The full figure set: every scheme × every load point.

    Under WFQ, MQ-ECN is skipped (round-based only, as in the paper).
    All schemes at a given (load, seed) see the *same* flow arrival
    sequence, so comparisons are paired.

    The points are independent simulations, each fully determined by its
    ``(scheme, scheduler, load, profile, seed)`` tuple, so they fan out
    over worker processes (``config.jobs``: ``None`` → the profile's
    default, ``0`` → all cores, ``1`` → serial) with results identical
    to the serial run — in value and in order — at every jobs level.

    With ``store`` (a :class:`~repro.store.RunStore` or its root path) or
    ``config.cache_dir``, each point is keyed by its
    :func:`fct_point_spec` content address: completed points are read
    back instead of re-simulated, an interrupted sweep resumes from
    whatever its workers persisted, and ``config.force`` (or
    ``config.resume=False``) recomputes and overwrites.

    ``faults`` / ``controller`` / ``topology`` follow the one resolution
    rule (:meth:`~repro.store.RunConfig.resolve`); the shared buffer is
    ``config.shared_buffer``.
    """
    config, profile, seed, jobs, store, force = sweep_setup(
        config, profile, seed, store)
    # Everything is resolved here, once, and shipped inside each point:
    # the value that keys a point is the value its worker simulates.  A
    # point is fct_point_spec's arguments, in order, plus the profiler
    # switch (execution only, not identity).
    faults, controller, topology = config.resolve(
        faults=faults, controller=controller, topology=topology)
    topology_spec = resolve_fct_topology(topology)
    points = [
        (name, scheduler_name, load, profile, seed, bool(config.audit),
         topology_spec, tuple(faults or ()), controller, config.shards,
         config.shared_buffer, config.profile_events)
        for load in profile.loads
        for name in scheme_names
        if not (scheduler_name == "wfq" and name == "mq-ecn")
    ]
    return cached_sweep(
        points, [fct_point_spec(*point[:-1]) for point in points],
        "repro.experiments.largescale:fct_sweep_point", FctRow.from_payload,
        store, force, jobs, profile.name)


def reduction_percent(
    rows: Sequence[FctRow],
    scheme: str,
    baseline: str,
    size_class: Optional[SizeClass],
    stat: str,
) -> Dict[float, float]:
    """Per-load FCT reduction of ``scheme`` vs ``baseline`` in percent
    (positive = scheme is faster) — the paper's headline numbers."""
    by_key = {(row.scheme, row.load): row for row in rows}
    loads = sorted({row.load for row in rows})
    result: Dict[float, float] = {}
    for load in loads:
        ours = by_key.get((scheme, load))
        theirs = by_key.get((baseline, load))
        if ours is None or theirs is None:
            continue
        value = ours.stat(size_class, stat)
        base = theirs.stat(size_class, stat)
        if value is None or base is None or base == 0:
            continue
        result[load] = (1.0 - value / base) * 100.0
    return result
