"""X-SCALE: does PMSB's victim protection survive fabric growth?

Every fairness result in the paper (and every static scenario in this
repro) lives on a one-switch bottleneck or a 48-port testbed.  The
parametric :class:`~repro.net.topology.TopologySpec` generator removes
that ceiling, so this family re-asks the paper's core question — how
far does a lone queue-0 flow land from its scheduler-guaranteed share
when hogs crush the same port? — on real folded-Clos fabrics from 48
to 1024 hosts.

Each point builds one generated fabric, aims one long-lived *victim*
flow (service 0) and ``hogs`` long-lived hog flows (service 1) at a
single receiver, and measures per-queue goodput on the receiver's
host-facing downlink — the one port every flow must share, wherever
ECMP spreads the upstream paths.  With DWRR and two active services
the victim's fair share is half the downlink;
``victim_err = |victim - fair| / fair`` is exactly the Fig. 3 metric,
now a function of fabric size.

The sweep walks :data:`SCALE_LADDER` (48 -> 1024 hosts, two- and
three-tier Clos at several oversubscription ratios) for each scheme
and is store-backed like every other sweep: points key on the
topology's canonical params, fan out across ``--jobs`` workers, and
resume from the content-addressed run store.  Rows also carry the
fabric build time, so the sweep doubles as a coarse generator
benchmark at experiment scale.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import (Any, Dict, List, Mapping, Optional, Sequence, Tuple,
                    Union)

from ..net.sharedbuf import SharedBufferSpec
from ..net.topology import TopologySpec, as_topology
from ..sim.audit import FabricAuditor
from ..sim.engine import Simulator
from ..sim.shard import (ShardResult, ShardScenario, cut_fabric,
                         verify_fabric)
from ..store.runstore import RunStore
from ..store.spec import ExperimentSpec, RunConfig, extension_params
from ..store.sweep import cached_sweep, sweep_setup
from ..transport.flow import Flow
from ..metrics.throughput import ThroughputMeter
from .scale import ScaleProfile
from .scenario import make_scheme
from .sharded import execute, wire_local_flows

__all__ = [
    "SCALE_LADDER",
    "XSCALE_EXPERIMENT",
    "XSCALE_SCHEMES",
    "XScaleRow",
    "run_xscale_sweep",
    "xscale_point",
    "xscale_point_spec",
    "xscale_row",
    "xscale_scenario",
]

#: Experiment family name in the run store.
XSCALE_EXPERIMENT = "xscale"

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
class XScaleRow:
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
    #: Wall-clock seconds spent generating + wiring the fabric.
    build_s: float

    def to_payload(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_payload(cls, data: Mapping[str, Any]) -> "XScaleRow":
        return cls(**{name: data[name] for name in (
            "scheme", "scheduler", "topology", "n_hosts", "n_switches",
            "hogs", "seed", "victim_gbps", "hogs_gbps", "victim_err",
            "drops", "build_s")})


def _spec_text(spec: TopologySpec) -> str:
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
    shards: int = 1,
    shared_buffer: Optional[SharedBufferSpec] = None,
) -> ExperimentSpec:
    """The canonical identity of one scale point (cache key)."""
    topo = as_topology(topology)
    params: Dict[str, Any] = dict(topo.cache_params())
    params["hogs"] = int(hogs)
    params.update(extension_params(shared_buffer=shared_buffer))
    # Sharded points key separately (synchronized starts make them
    # tolerance-equal, not byte-equal); shards=1 keys are untouched.
    if shards and shards > 1:
        params["shards"] = int(shards)
    return ExperimentSpec.create(
        XSCALE_EXPERIMENT, scheme=scheme_name, scheduler=scheduler_name,
        load=0.0, seed=seed, profile=profile, audit=audit, params=params,
    )


def _pick_endpoints(host_ids: Sequence[int], hogs: int,
                    seed: int) -> Tuple[int, int, List[int]]:
    """Deterministic (receiver, victim, hog sources) for one fabric.

    The receiver is the seed-rotated host, the victim sits half the
    fabric away (a different leaf on every ladder entry), and hogs are
    spread evenly over the remaining hosts so ECMP fans their paths
    across the whole core.
    """
    n = len(host_ids)
    if n < hogs + 2:
        raise ValueError(
            f"fabric has {n} hosts but the scenario needs {hogs + 2} "
            "(receiver + victim + hogs)")
    receiver = host_ids[seed % n]
    victim = host_ids[(seed + n // 2) % n]
    pool = [h for h in host_ids if h not in (receiver, victim)]
    stride = max(1, len(pool) // hogs)
    sources = [pool[(i * stride) % len(pool)] for i in range(hogs)]
    # Strides that wrap can collide; backfill with the unused hosts.
    unused = iter(h for h in pool if h not in set(sources))
    seen: set = set()
    for i, src in enumerate(sources):
        if src in seen:
            sources[i] = next(unused)
        seen.add(sources[i])
    return receiver, victim, sources


def xscale_scenario(
    shard_id: int,
    n_shards: int,
    scheme_name: str,
    topo: TopologySpec,
    scheduler_name: str = "dwrr",
    hogs: int = 8,
    link_rate: float = 10e9,
    seed: int = 1,
    duration: float = 0.02,
    audit: bool = False,
    shared_buffer: Optional[SharedBufferSpec] = None,
) -> ShardScenario:
    """Build one shard of a scale point — the whole point at
    ``n_shards == 1``."""
    from .sharedbuf import _scheduler_factory

    scheme = make_scheme(scheme_name, link_rate=link_rate, n_queues=2)
    sim = Simulator()
    if audit:
        FabricAuditor(sim)
    build_start = time.perf_counter()
    network = topo.build(sim, _scheduler_factory(scheduler_name, 2),
                         scheme.marker_factory, shared_buffer=shared_buffer,
                         link_rate=link_rate)
    build_s = time.perf_counter() - build_start
    fabric = cut_fabric(network, shard_id, n_shards)

    host_ids = [host.host_id for host in network.hosts]
    receiver, victim, sources = _pick_endpoints(host_ids, hogs, seed)
    downlink = network.host_facing_port(receiver)
    if downlink is None:
        raise ValueError(f"fabric has no host-facing port for receiver "
                         f"{receiver}")
    # The downlink transmits only in the shard that owns the receiver.
    meter = None
    if fabric is None or receiver in fabric.local_host_ids:
        meter = ThroughputMeter(sim, bin_width=1e-3)
        meter.attach_port(downlink)

    # Explicit flow ids (ECMP hashes on them): Flow's default draws from
    # a process-global counter, which would tie a row to whatever ran
    # earlier in the process and differ between shard workers.
    flows = [Flow(src=victim, dst=receiver, service=0, flow_id=1)]
    flows += [Flow(src=src, dst=receiver, service=1, flow_id=2 + index)
              for index, src in enumerate(sources)]
    wire_local_flows(network, fabric, flows,
                     lambda _flow: scheme.transport_config(init_cwnd=4.0))
    warmup = duration / 3.0

    def finalize() -> Dict[str, Any]:
        verify_fabric(network, fabric)
        return {
            "scheme": scheme.name, "scheduler": scheduler_name,
            "topology": _spec_text(topo),
            "n_hosts": len(network.hosts),
            "n_switches": len(network.switches),
            "hogs": hogs, "seed": seed, "build_s": build_s,
            "rates": None if meter is None else (
                meter.average_bps(0, warmup, duration) / 1e9,
                meter.average_bps(1, warmup, duration) / 1e9,
                downlink.drops),
        }

    return ShardScenario(sim=sim, fabric=fabric, deadline=duration,
                         total_units=None, completed=lambda: 0,
                         finalize=finalize)


def xscale_row(results: Sequence[ShardResult]) -> XScaleRow:
    """The :class:`XScaleRow` of one executed :func:`xscale_scenario`:
    rates from the shard that metered the receiver's downlink, build
    time from the slowest shard."""
    metered = [result.payload["rates"] for result in results
               if result.payload["rates"] is not None]
    if len(metered) != 1:
        raise RuntimeError(f"{len(metered)} shards reported the receiver "
                           "downlink rates; expected exactly one")
    victim_gbps, hogs_gbps, drops = metered[0]
    total = victim_gbps + hogs_gbps
    fair = total / 2.0
    first = results[0].payload
    return XScaleRow(
        scheme=first["scheme"], scheduler=first["scheduler"],
        topology=first["topology"],
        n_hosts=first["n_hosts"], n_switches=first["n_switches"],
        hogs=first["hogs"], seed=first["seed"],
        victim_gbps=victim_gbps, hogs_gbps=hogs_gbps,
        victim_err=abs(victim_gbps - fair) / fair if total else 0.0,
        drops=drops,
        build_s=max(result.payload["build_s"] for result in results),
    )


def xscale_point(
    scheme_name: str,
    topology: Union[str, TopologySpec],
    scheduler_name: str = "dwrr",
    hogs: int = 8,
    link_rate: float = 10e9,
    seed: int = 1,
    config: Optional[RunConfig] = None,
    provenance_out: Optional[Dict[str, Any]] = None,
) -> XScaleRow:
    """Measure victim protection on one generated fabric.

    Builds ``topology``, opens 1 victim (service 0) and ``hogs`` hog
    flows (service 1) toward one receiver, and reports per-queue
    goodput on the receiver's downlink after a third of the run has
    warmed the fabric up.  ``config.shards`` spreads the same
    :func:`xscale_scenario` over that many shards and
    ``config.shared_buffer`` gives every switch a shared memory; the
    scenario is clean and open-loop, so ``config.faults`` and
    ``config.controller`` are not consulted.  ``provenance_out``,
    when given, receives wall time and engine counters for run-store
    provenance.
    """
    config = config or RunConfig()
    topo = as_topology(topology)
    if topo is None or topo.preset == "single-bottleneck":
        raise ValueError("xscale needs a multi-host fabric spec "
                         "(leaf-spine / fat-tree / clos)")
    return xscale_row(execute(
        partial(xscale_scenario, scheme_name=scheme_name, topo=topo,
                scheduler_name=scheduler_name, hogs=hogs,
                link_rate=link_rate, seed=seed,
                duration=(config.duration if config.duration is not None
                          else 0.02),
                audit=bool(config.audit),
                shared_buffer=config.shared_buffer),
        config.shards if config.shards is not None else 1,
        provenance_out=provenance_out))


def _xscale_sweep_point(point, provenance: Dict[str, Any]) -> XScaleRow:
    """Simulate one sweep point (the ``compute`` of
    :func:`~repro.store.sweep.cached_sweep`)."""
    (scheme_name, scheduler_name, topology, profile, seed, hogs, audit,
     shards, shared_buffer, expected_hosts) = point
    row = xscale_point(
        scheme_name, topology, scheduler_name=scheduler_name, hogs=hogs,
        link_rate=profile.link_rate, seed=seed,
        config=RunConfig(duration=profile.static_duration, audit=audit,
                         shards=shards, shared_buffer=shared_buffer),
        provenance_out=provenance,
    )
    if expected_hosts and row.n_hosts != expected_hosts:
        raise RuntimeError(
            f"{row.topology} built {row.n_hosts} hosts, ladder pins "
            f"{expected_hosts} — generator shape regression")
    return row


def run_xscale_sweep(
    scheme_names: Sequence[str] = XSCALE_SCHEMES,
    scheduler_name: str = "dwrr",
    ladder: Sequence[Union[str, TopologySpec, Tuple[str, int]]] = SCALE_LADDER,
    hogs: int = 8,
    profile: Optional[ScaleProfile] = None,
    seed: Optional[int] = None,
    config: Optional[RunConfig] = None,
    store: Optional[Union[RunStore, str]] = None,
) -> List[XScaleRow]:
    """Victim-flow error vs fabric size: every scheme on every rung.

    ``ladder`` entries are topology spec texts (optionally paired with
    a pinned expected host count, as in :data:`SCALE_LADDER`).  Points
    fan out over worker processes and cache/resume exactly like
    :func:`~repro.experiments.largescale.run_fct_sweep`.  The ladder is
    this sweep's variable, so ``config.topology`` is not consulted.
    """
    config, profile, seed, jobs, store, force = sweep_setup(
        config, profile, seed, store)
    rungs: List[Tuple[TopologySpec, int]] = []
    for entry in ladder:
        if isinstance(entry, tuple):
            text, expected = entry
            rungs.append((as_topology(text), int(expected)))
        else:
            rungs.append((as_topology(entry), 0))
    # A point is xscale_point_spec's arguments, in order, plus the
    # rung's pinned host count (a check, not identity).
    points = [
        (name, scheduler_name, topo, profile, seed, hogs,
         bool(config.audit), config.shards, config.shared_buffer, expected)
        for topo, expected in rungs
        for name in scheme_names
    ]
    return cached_sweep(
        points, [xscale_point_spec(*point[:-1]) for point in points],
        f"{__name__}:_xscale_sweep_point", XScaleRow.from_payload,
        store, force, jobs, profile.name)
