"""Every store-backed experiment family, one :class:`Family` row each.

A row is what :func:`~repro.store.sweep.run_sweep` needs to key,
simulate and read back a family's points: the store experiment name,
the spec builder (a point's content address), the point function, the
row class and the default grid.  The point function is *named*, so the
module that simulates is imported only when a point misses; this
module holds the rows, their spec builders and their row classes, and
imports nothing that simulates — so a sweep whose points are all stored
answers without the engine, the transports, the workload generators or
numpy.

- :data:`FCT` — the §VI-B FCT sweep (Figs. 16–27): scheme × load;
- :data:`CHAOS` — the same workload across a loss-rate grid;
- :data:`SHAREDBUF` — scheme × switch-memory sharing policy;
- :data:`XSCALE` — scheme × Clos ladder rung, 48 → 1024 hosts;
- :data:`INCAST` — the partition/aggregate fan-in sweep.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import (TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..metrics.fct import SizeClass
from ..metrics.stats import SummaryStats
from ..net.sharedbuf import SharedBufferSpec
from ..net.topology import TopologySpec, as_topology
from ..store.spec import ExperimentSpec, extension_params
from ..store.sweep import Family
from .scale import ScaleProfile

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.faults import FaultSpec

__all__ = [
    "FCT", "CHAOS", "SHAREDBUF", "XSCALE", "INCAST",
    "FctRow", "fct_point_spec", "topology_params", "resolve_fct_topology",
    "reduction_percent", "LARGESCALE_SCHEMES",
    "ChaosFctRow", "chaos_faults", "chaos_point_spec", "sorted_drops",
    "CHAOS_SCHEMES", "DEFAULT_LOSS_RATES",
    "SharedBufRow", "sharedbuf_point_spec", "default_policies",
    "SHAREDBUF_SCHEMES", "DEFAULT_ALPHAS", "DEFAULT_TARGET_DELAYS",
    "DEFAULT_CAPACITY",
    "XScaleRow", "xscale_point_spec", "spec_text", "SCALE_LADDER",
    "XSCALE_SCHEMES",
    "IncastRow", "incast_point_spec",
]


class PayloadRow:
    """The run-store payload codec every row dataclass shares: its
    fields, in order.  A row holding nested rows or stats
    (:class:`FctRow`, :class:`ChaosFctRow`) overrides
    :meth:`from_payload`."""

    def to_payload(self) -> Dict[str, Any]:
        """A JSON-able dict for run-store persistence, in field order."""
        return asdict(self)

    @classmethod
    def from_payload(cls, data: Mapping[str, Any]):
        """Inverse of :meth:`to_payload`; keys the row no longer has
        (an older record's) are ignored."""
        return cls(**{field.name: data[field.name] for field in fields(cls)})


# -- §VI-B FCT (Figs. 16–27) ---------------------------------------------------

#: Scheme line-up of the DWRR figures; WFQ drops "mq-ecn".
LARGESCALE_SCHEMES = ("pmsb", "pmsb-e", "mq-ecn", "tcn")


@dataclass
class FctRow(PayloadRow):
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


def topology_params(topology: Union[str, TopologySpec, None]) -> Dict[str, Any]:
    """Topology contribution to an FCT point spec's params.

    The fabric :func:`resolve_fct_topology` builds renders to its
    *historical* param shape (see
    :meth:`~repro.net.topology.TopologySpec.cache_params`), so every
    pre-redesign run-store key is unchanged; a fabric that sets
    ``link_rate`` or ``link_delay`` adds ``thresholds="fabric-physics"``,
    and one that sets ``link_rate`` adds ``arrivals="fabric-rate"``.
    """
    topology = resolve_fct_topology(topology)
    params = topology.cache_params()
    if topology.link_rate or topology.link_delay:
        # The scheme thresholds follow this fabric's own link rate and
        # delay (they once assumed the profile's rate and a 5 us hop),
        # so such points key apart from rows stored then.
        params["thresholds"] = "fabric-physics"
    if topology.link_rate:
        # Offered load follows the built link rate (it once used the
        # profile's), so the flows drawn differ from rows stored then.
        params["arrivals"] = "fabric-rate"
    return params


def fct_point_spec(
    scheme_name: str,
    scheduler_name: str,
    load: float,
    profile: ScaleProfile,
    seed: int,
    audit: bool = False,
    topology: Union[str, TopologySpec, None] = None,
    faults: Sequence[FaultSpec] = (),
    shared_buffer: Optional[SharedBufferSpec] = None,
) -> ExperimentSpec:
    """The canonical identity of one §VI-B FCT point (store cache key).

    Everything that determines the row's numbers is in here — the
    fabric (rendered through :func:`topology_params`, so default
    fabrics keep their historical keys), any injected
    :class:`~repro.sim.faults.FaultSpec` set and any
    :class:`~repro.net.sharedbuf.SharedBufferSpec`, rendered by
    :func:`~repro.store.spec.extension_params` so chaos and
    shared-memory points key differently from clean ones (and a point
    without them keys exactly as before these layers existed);
    execution mechanics (worker count, profiler, cache location)
    deliberately are not — see :class:`~repro.store.ExperimentSpec`.
    """
    params = topology_params(topology)
    params.update(extension_params(faults or (), shared_buffer))
    return ExperimentSpec.create(
        FCT.experiment, scheme=scheme_name, scheduler=scheduler_name,
        load=load, seed=seed, profile=profile, audit=audit, params=params,
    )


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


#: All schemes at a given (load, seed) see the same flow arrivals, so
#: comparisons are paired.
FCT = Family(
    experiment="fct-point",
    spec=fct_point_spec,
    point="repro.experiments.largescale:fct_sweep_point",
    row=FctRow,
    axes=(("load", None), ("scheme_name", LARGESCALE_SCHEMES),
          ("scheduler_name", ("dwrr",))),
)


# -- chaos: the FCT workload across a loss-rate grid ---------------------------

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
    from ..sim.faults import loss_spec
    return (loss_spec(model, loss_rate, links=links, salt=salt),)


def sorted_drops(drops: Mapping[str, Any]) -> Dict[str, int]:
    """Key-sorted copy, so fresh and cache-loaded rows export the same
    bytes (``to_json`` preserves dict insertion order)."""
    return {str(key): int(drops[key]) for key in sorted(drops)}


@dataclass
class ChaosFctRow(PayloadRow):
    """One (scheme, scheduler, load, model, loss rate) FCT measurement."""

    model: str
    loss_rate: float
    #: Injected drops by reason, summed over all faulted links.
    drops: Dict[str, int]
    fct: FctRow

    def stat(self, size_class, name: str) -> Optional[float]:
        """Delegate to :meth:`FctRow.stat` for printing/plotting."""
        return self.fct.stat(size_class, name)

    @classmethod
    def from_payload(cls, data: Mapping[str, Any]) -> "ChaosFctRow":
        return cls(
            model=data["model"],
            loss_rate=data["loss_rate"],
            drops=sorted_drops(data["drops"]),
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
    topology: Union[str, TopologySpec, None] = None,
    shared_buffer: Optional[SharedBufferSpec] = None,
) -> ExperimentSpec:
    """The canonical identity of one chaos FCT point (store cache key).

    The full fault set is rendered into the params — alongside the
    human-readable ``model``/``loss_rate`` knobs — so any change to how
    :func:`chaos_faults` shapes a model re-keys the affected points.
    Default topologies render to the historical ``"leaf-spine"`` param
    (see :func:`topology_params`).
    """
    faults = chaos_faults(model, loss_rate)
    params: Dict[str, Any] = topology_params(topology)
    params.update({
        "model": model,
        "loss_rate": loss_rate,
        "faults": tuple(spec.to_param() for spec in faults),
    })
    params.update(extension_params((), shared_buffer))
    return ExperimentSpec.create(
        CHAOS.experiment, scheme=scheme_name, scheduler=scheduler_name,
        load=load, seed=seed, profile=profile, audit=audit, params=params,
    )


#: All schemes at a given (load, seed, loss rate) see the same flow
#: arrivals *and* the same per-link fault streams (streams key on seed,
#: salt and link name — not on the scheme).  The loss grid is this
#: family's variable, so ``config.faults`` is not a point field.
CHAOS = Family(
    experiment="fct-chaos",
    spec=chaos_point_spec,
    point="repro.experiments.chaos:chaos_sweep_point",
    row=ChaosFctRow,
    axes=(("loss_rate", DEFAULT_LOSS_RATES), ("load", None),
          ("scheme_name", CHAOS_SCHEMES), ("scheduler_name", ("dwrr",)),
          ("model", ("iid-loss",))),
)


# -- shared buffers: scheme × sharing policy -----------------------------------

#: Marking schemes compared over the shared memory (≥ 3 per the
#: experiment brief: PMSB against the conventional alternatives).
SHAREDBUF_SCHEMES = ("pmsb", "per-port", "per-queue-standard", "mq-ecn")

#: Dynamic-threshold aggressiveness grid.
DEFAULT_ALPHAS = (0.5, 1.0, 2.0, 4.0)

#: BShare queueing-delay targets (seconds).
DEFAULT_TARGET_DELAYS = (100e-6, 200e-6)

#: Switch-wide memory in packets — shallow on purpose, so admission
#: (not marking) is the binding constraint and policies differentiate.
DEFAULT_CAPACITY = 64


def default_policies(
    capacity: int = DEFAULT_CAPACITY,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    target_delays: Sequence[float] = DEFAULT_TARGET_DELAYS,
) -> Tuple[SharedBufferSpec, ...]:
    """The default policy grid: DT across ``alphas`` + BShare across
    ``target_delays``, all at the same switch capacity."""
    return tuple(
        [SharedBufferSpec(policy="dt", capacity=capacity, alpha=alpha)
         for alpha in alphas]
        + [SharedBufferSpec(policy="bshare", capacity=capacity,
                            target_delay=delay)
           for delay in target_delays]
    )


@dataclass
class SharedBufRow(PayloadRow):
    """One (scheme, scheduler, sharing policy) buffer-contention point."""

    scheme: str
    scheduler: str
    policy: str
    capacity: int
    alpha: float
    target_delay: float
    #: Victim scenario: the lone queue-0 flow vs 8 queue-1 hogs.
    victim_gbps: float
    hogs_gbps: float
    victim_err: float
    victim_drops: int
    #: Burst scenario: 16-flow incast into queue 1 mid-run.
    burst_drops: int
    burst_loss_fraction: float
    #: Pool ledger over the burst run.
    pool_peak: int
    pool_rejections: int


def sharedbuf_point_spec(
    scheme_name: str,
    scheduler_name: str,
    shared_buffer: Optional[SharedBufferSpec],
    profile: ScaleProfile,
    seed: int,
    audit: bool = False,
    topology: Union[str, TopologySpec, None] = None,
    faults: Sequence[FaultSpec] = (),
) -> ExperimentSpec:
    """The canonical identity of one shared-buffer point (cache key).

    The full :class:`~repro.net.sharedbuf.SharedBufferSpec` is rendered
    into the params, so a changed alpha, capacity or delay target
    re-keys exactly the affected points.  ``topology=None`` renders the
    historical ``single-bottleneck`` param, leaving old cache keys
    intact; non-default specs re-key via
    :meth:`~repro.net.topology.TopologySpec.cache_params`.
    """
    topo = as_topology(topology)
    params: Dict[str, Any] = dict(
        topo.cache_params() if topo is not None
        else {"topology": "single-bottleneck"})
    params["shared_buffer"] = (shared_buffer.to_param()
                               if shared_buffer is not None else "none")
    params.update(extension_params(faults))
    return ExperimentSpec.create(
        SHAREDBUF.experiment, scheme=scheme_name, scheduler=scheduler_name,
        load=0.0, seed=seed, profile=profile, audit=audit, params=params,
    )


#: The policy grid — the private-buffer baseline (None), then DT across
#: :data:`DEFAULT_ALPHAS` and BShare across :data:`DEFAULT_TARGET_DELAYS`
#: — is this family's variable, so ``config.shared_buffer`` is not
#: consulted.
SHAREDBUF = Family(
    experiment="sharedbuf",
    spec=sharedbuf_point_spec,
    point="repro.experiments.sharedbuf:sharedbuf_point",
    row=SharedBufRow,
    axes=(("shared_buffer", (None,) + default_policies()),
          ("scheme_name", SHAREDBUF_SCHEMES), ("scheduler_name", ("dwrr",))),
)


# -- X-SCALE: scheme × fabric size ---------------------------------------------

#: Schemes compared as the fabric grows: PMSB against the conventional
#: per-port marking it fixes.
XSCALE_SCHEMES = ("pmsb", "per-port")

#: The fabric ladder, smallest first: ``(spec_text, n_hosts)``.  Each
#: entry is a :meth:`TopologySpec.parse`-able Clos; host counts are
#: pinned here so a generator regression that changes fabric shape
#: fails loudly instead of silently re-keying the sweep.
SCALE_LADDER: Tuple[Tuple[str, int], ...] = (
    ("clos:tiers=2,ports=8,oversub=1.5", 48),
    ("clos:tiers=2,ports=16", 128),
    ("clos:tiers=2,ports=16,oversub=2", 256),
    ("clos:tiers=2,ports=32", 512),
    ("clos:tiers=3,ports=16", 1024),
)


@dataclass
class XScaleRow(PayloadRow):
    """One (scheme, fabric) victim-protection measurement."""

    scheme: str
    scheduler: str
    #: Canonical spec text of the fabric (``clos:ports=16,tiers=2``…).
    topology: str
    n_hosts: int
    n_switches: int
    hogs: int
    seed: int
    victim_gbps: float
    hogs_gbps: float
    #: Fig. 3 metric on the receiver downlink: |victim - fair| / fair.
    victim_err: float
    #: Drops on the measured downlink over the whole run.
    drops: int


def spec_text(spec: TopologySpec) -> str:
    """Canonical ``preset:key=val`` rendering of a topology spec."""
    pairs = [f"{key}={value}" for key, value in spec.to_param()
             if key != "preset"]
    return spec.preset + (":" + ",".join(pairs) if pairs else "")


def xscale_point_spec(
    scheme_name: str,
    scheduler_name: str,
    topology: Union[str, TopologySpec],
    profile: ScaleProfile,
    seed: int,
    hogs: int = 8,
    audit: bool = False,
    shared_buffer: Optional[SharedBufferSpec] = None,
) -> ExperimentSpec:
    """The canonical identity of one scale point (cache key)."""
    topo = as_topology(topology)
    params: Dict[str, Any] = dict(topo.cache_params())
    params["hogs"] = int(hogs)
    params.update(extension_params(shared_buffer=shared_buffer))
    return ExperimentSpec.create(
        XSCALE.experiment, scheme=scheme_name, scheduler=scheduler_name,
        load=0.0, seed=seed, profile=profile, audit=audit, params=params,
    )


#: The ladder is this family's variable, so ``config.topology`` is not
#: consulted; a rung :data:`SCALE_LADDER` pins is checked against its
#: host count when it is simulated.
XSCALE = Family(
    experiment="xscale",
    spec=xscale_point_spec,
    point="repro.experiments.xscale:xscale_sweep_point",
    row=XScaleRow,
    axes=(("topology", tuple(text for text, _hosts in SCALE_LADDER)),
          ("scheme_name", XSCALE_SCHEMES), ("scheduler_name", ("dwrr",)),
          ("hogs", (8,))),
)


# -- incast fan-in --------------------------------------------------------------

@dataclass(frozen=True)
class IncastRow(PayloadRow):
    """Outcome of one synchronized incast degree under one scheme."""

    scheme: str
    fanin: int
    drops: int
    completed: int
    fct_p99: Optional[float]
    retransmission_timeouts: int


def incast_point_spec(
    scheme_name: str,
    fanin: int,
    response_bytes: int = 20_000,
    buffer_packets: int = 128,
    link_rate: float = 10e9,
    duration: float = 0.1,
    audit: bool = False,
) -> ExperimentSpec:
    """Content address of one incast fan-in point (store cache key)."""
    return ExperimentSpec.create(
        INCAST.experiment, scheme=scheme_name, scheduler="dwrr",
        audit=audit,
        params={"fanin": fanin, "response_bytes": response_bytes,
                "buffer_packets": buffer_packets, "link_rate": link_rate,
                "duration": duration},
    )


#: ``fanin`` workers answer an aggregator simultaneously with
#: ``response_bytes`` each through one moderately buffered port; the
#: simulated time is ``config.duration`` (default 0.1 s).
INCAST = Family(
    experiment="incast-sweep",
    spec=incast_point_spec,
    point="repro.experiments.extensions:incast_sweep_point",
    row=IncastRow,
    axes=(("fanin", (8, 16, 32, 64)), ("scheme_name", ("pmsb",))),
)
