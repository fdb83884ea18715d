"""Large-scale FCT experiments (paper §VI-B, Figs. 16–27).

A leaf-spine fabric carries a Poisson arrival of realistically-sized
flows (60% small / 10% large) spread over 8 services → 8 switch queues
with equal weights.  For each scheme and each load point we collect flow
completion times and report the paper's statistics:

- overall average FCT                          (Figs. 16 / 22)
- large-flow average and 99th percentile       (Figs. 17–18 / 23–24)
- small-flow average, 95th and 99th percentile (Figs. 19–21 / 25–27)

Scheme parameters follow §VI-B: PMSB/PMSB(e) port threshold 12 packets
(from Theorem IV.1), PMSB(e) RTT threshold 85.2 µs, MQ-ECN standard
threshold 65 packets, TCN threshold 78.2 µs; PMSB, PMSB(e) and MQ-ECN
mark at enqueue, TCN at dequeue.  MQ-ECN is automatically excluded under
WFQ (it raises — no round concept), matching the paper.

This module simulates one point (:func:`run_fct_point`); the row, the
point identity and the sweep live in
:mod:`repro.experiments.fct_sweep`, which imports nothing that
simulates, and are re-exported here.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Optional, Sequence, Union

from ..control.controller import ControllerRuntime, ControllerSpec
from ..metrics.fct import FctCollector, SizeClass
from ..net.sharedbuf import SharedBufferSpec
from ..net.topology import TopologySpec
from ..scheduling.dwrr import DwrrScheduler
from ..scheduling.wfq import WfqScheduler
from ..sim.audit import FabricAuditor
from ..sim.engine import Simulator
from ..sim.faults import FaultScheduler, FaultSpec
from ..sim.rng import make_rng
from ..sim.shard import (ShardResult, ShardScenario, cut_fabric,
                         verify_fabric)
from ..store.spec import RunConfig
from ..workloads.distributions import PAPER_MIX, SizeDistribution
from ..workloads.generator import PoissonFlowGenerator
from .fct_sweep import (LARGESCALE_SCHEMES, FctRow, fct_point_spec,
                        reduction_percent, resolve_fct_topology,
                        run_fct_sweep, topology_params)
from .scale import BENCH, ScaleProfile
from .scenario import SchemeSpec, check_compatibility, make_scheme
from .sharded import _merge_fault_stats, execute, wire_local_flows

__all__ = ["FctRow", "fct_point_spec", "topology_params", "largescale_scheme",
           "resolve_fct_topology", "fct_scenario", "fct_row", "run_fct_point",
           "run_fct_sweep", "reduction_percent", "LARGESCALE_SCHEMES"]

N_SERVICES = 8
PORT_THRESHOLD_PACKETS = 12.0


def fabric_base_rtt(link_rate: float, hops: int = 4,
                    link_delay: float = 5e-6) -> float:
    """Unloaded RTT across ``hops`` store-and-forward links each way.

    The longest path is 4 hops in the leaf-spine fabric
    (host→leaf→spine→leaf→host) and 6 in a fat-tree
    (host→edge→agg→core→agg→edge→host); the data packet pays MTU
    serialization per hop, the ACK 40 bytes.
    """
    from ..net.packet import ACK_BYTES, MTU_BYTES
    data_path = hops * (link_delay + MTU_BYTES * 8.0 / link_rate)
    ack_path = hops * (link_delay + ACK_BYTES * 8.0 / link_rate)
    return data_path + ack_path


def leaf_spine_base_rtt(link_rate: float, link_delay: float = 5e-6) -> float:
    """Unloaded inter-rack RTT of the leaf-spine fabric."""
    return fabric_base_rtt(link_rate, hops=4, link_delay=link_delay)


def largescale_scheme(name: str, link_rate: float = 10e9,
                      base_rtt_hops: int = 4) -> SchemeSpec:
    """The §VI-B parameterization of one scheme.

    The paper's absolute numbers (PMSB(e) RTT threshold 85.2 µs, TCN
    threshold 78.2 µs) encode *their* fabric's base RTT and a 65-packet
    standard threshold; we recompute both from our fabric so the
    dimensionless design stays the paper's: the PMSB(e) filter triggers
    one port-threshold's worth of queueing above the base RTT, and TCN's
    sojourn threshold is the drain time of the standard threshold.
    """
    base_rtt = fabric_base_rtt(link_rate, hops=base_rtt_hops)
    port_drain = PORT_THRESHOLD_PACKETS * 1500 * 8.0 / link_rate
    return make_scheme(
        name,
        link_rate=link_rate,
        n_queues=N_SERVICES,
        port_threshold_packets=PORT_THRESHOLD_PACKETS,
        standard_threshold_packets=65.0,
        rtt_threshold=base_rtt + port_drain,
    )


def _make_scheduler_factory(scheduler_name: str):
    if scheduler_name == "dwrr":
        return lambda: DwrrScheduler(N_SERVICES)
    if scheduler_name == "wrr":
        from ..scheduling.wrr import WrrScheduler
        return lambda: WrrScheduler(N_SERVICES)
    if scheduler_name == "wfq":
        return lambda: WfqScheduler(N_SERVICES)
    raise ValueError(
        f"unknown scheduler {scheduler_name!r} (use 'dwrr', 'wrr' or 'wfq')")


def fct_scenario(
    shard_id: int,
    n_shards: int,
    scheme_name: str,
    scheduler_name: str,
    load: float,
    profile: ScaleProfile,
    seed: int,
    topo: TopologySpec,
    audit: bool = False,
    fault_specs: Sequence[FaultSpec] = (),
    controller: Optional[ControllerSpec] = None,
    shared_buffer: Optional[SharedBufferSpec] = None,
    size_distribution: Optional[SizeDistribution] = None,
    size_scale: Optional[float] = None,
    profile_events: bool = False,
) -> ShardScenario:
    """Build one shard of an FCT point — the whole point at
    ``n_shards == 1``.  :func:`run_fct_point` resolves defaults and
    rejects unsupported combinations before calling this."""
    scheme = largescale_scheme(scheme_name, profile.link_rate,
                               base_rtt_hops=topo.base_rtt_hops)
    rng = make_rng(seed)
    sim = Simulator()
    if audit:
        FabricAuditor(sim)
    profiler = None
    if profile_events:
        from ..sim.profile import SimProfiler
        profiler = SimProfiler(sim, sample_interval=profile.time_cap / 200.0)
        profiler.start()
    network = topo.build(
        sim, _make_scheduler_factory(scheduler_name), scheme.marker_factory,
        shared_buffer=shared_buffer, default_fabric=profile.fabric,
        link_rate=profile.link_rate,
    )
    fabric = cut_fabric(network, shard_id, n_shards)
    chaos = None
    if fault_specs:
        chaos = FaultScheduler(sim, fault_specs, seed=seed)
        chaos.apply(network)
    runtime = None
    if controller is not None:
        runtime = ControllerRuntime(sim, network.all_marked_ports(),
                                    controller.build(), controller.period)
    if size_distribution is None:
        size_distribution = PAPER_MIX.scaled(profile.size_scale)
        size_scale = profile.size_scale
    elif size_scale is None:
        size_scale = 1.0
    generator = PoissonFlowGenerator(
        rng, [h.host_id for h in network.hosts], size_distribution,
        load=load, link_rate_bps=profile.link_rate, n_services=N_SERVICES,
    )
    flows = generator.generate(n_flows=profile.largescale_flows)

    collector = FctCollector(size_scale=size_scale)
    want_rtt = runtime is not None and controller.wants_rtt

    handles = wire_local_flows(
        network, fabric, flows,
        lambda _flow: scheme.transport_config(init_cwnd=16.0,
                                              record_rtt=want_rtt),
        on_complete=collector.on_complete)
    if runtime is not None:
        if want_rtt:
            for handle in handles:
                runtime.add_rtt_source(handle.sender)
        runtime.start()

    def finalize() -> Dict[str, Any]:
        verify_fabric(network, fabric)
        if runtime is not None:
            runtime.stop()
        if profiler is not None:
            profiler.stop()
        return {
            "scheme": scheme.name, "scheduler": scheduler_name,
            "load": load, "n_flows": len(flows), "size_scale": size_scale,
            "records": collector.records,
            "fault_stats": chaos.stats() if chaos is not None else None,
            "controller_stats": (runtime.stats() if runtime is not None
                                 else None),
            "profile_report": (profiler.report() if profiler is not None
                               else None),
        }

    return ShardScenario(sim=sim, fabric=fabric,
                         deadline=flows[-1].start_time + profile.time_cap,
                         total_units=len(flows),
                         completed=collector.__len__, finalize=finalize)


def fct_row(results: Sequence[ShardResult]) -> FctRow:
    """The :class:`FctRow` of one executed :func:`fct_scenario`.

    Several shards' completion records are merged chronologically by
    ``(completion time, flow id)``; a single shard's are already in
    completion order and stay as collected.
    """
    first = results[0].payload
    collector = FctCollector(size_scale=first["size_scale"])
    for result in results:
        collector.records.extend(result.payload["records"])
    if len(results) > 1:
        collector.records.sort(
            key=lambda r: (r.start_time + r.fct, r.flow_id))
    by_class = collector.summary_by_class()
    return FctRow(
        scheme=first["scheme"],
        scheduler=first["scheduler"],
        load=first["load"],
        n_flows=first["n_flows"],
        completed=len(collector),
        overall=collector.summary(),
        small=by_class[SizeClass.SMALL],
        medium=by_class[SizeClass.MEDIUM],
        large=by_class[SizeClass.LARGE],
    )


def run_fct_point(
    scheme_name: str,
    scheduler_name: str = "dwrr",
    load: float = 0.5,
    profile: Optional[ScaleProfile] = None,
    seed: Optional[int] = None,
    size_distribution: Optional[SizeDistribution] = None,
    topology: Union[str, TopologySpec, None] = None,
    size_scale: Optional[float] = None,
    config: Optional[RunConfig] = None,
    provenance_out: Optional[Dict[str, Any]] = None,
    faults: Optional[Sequence[FaultSpec]] = None,
    fault_stats_out: Optional[Dict[str, Any]] = None,
    controller: Optional[ControllerSpec] = None,
    controller_stats_out: Optional[Dict[str, Any]] = None,
) -> FctRow:
    """Run one load point for one scheme and collect FCT statistics.

    ``faults`` / ``controller`` / ``topology`` follow the one resolution
    rule (:meth:`~repro.store.RunConfig.resolve`): an explicit argument
    wins, None means the ``config`` field of the same name; the shared
    buffer is ``config.shared_buffer``.  ``topology`` selects the
    fabric: a :class:`~repro.net.topology.TopologySpec` (or its
    ``preset:key=val`` string spelling, e.g. ``"fat-tree:k=6"``) —
    unset everywhere, the paper's leaf-spine with its shape from the
    scale profile.  When passing a custom
    ``size_distribution`` that is already scaled, pass the matching
    ``size_scale`` so the small/large class boundaries scale with it.
    Execution knobs come from ``config``
    (:class:`~repro.store.RunConfig`): with ``config.profile_events`` a
    :class:`~repro.sim.profile.SimProfiler` rides along and its
    plain-text report is printed after the run; ``config.audit``
    attaches a :class:`~repro.sim.audit.FabricAuditor` across the whole
    fabric; ``config.shards``
    spreads the same :func:`fct_scenario` over that many
    conservative-lookahead shards
    (:func:`~repro.experiments.sharded.execute`).  Unsupported
    combinations (shards with a controller or ``profile_events``) are
    rejected up front by
    :func:`~repro.experiments.scenario.check_compatibility`.
    ``provenance_out``, when given, is filled with wall time and engine
    counters for run-store provenance.  ``faults`` injects a chaos
    layer (:mod:`repro.sim.faults`) over the fabric's links, seeded
    from the point's ``seed``; ``fault_stats_out`` receives the
    per-link drop breakdown afterwards.  ``controller`` attaches a
    closed-loop :class:`~repro.control.ControllerRuntime` retuning
    marker thresholds on the spec's period; ``controller_stats_out``
    receives its tick/change counters.
    """
    config = config or RunConfig()
    if profile is None:
        profile = config.profile if config.profile is not None else BENCH
    if seed is None:
        seed = config.seed if config.seed is not None else 1
    shards = config.shards if config.shards is not None else 1
    faults, controller, topology = config.resolve(
        faults=faults, controller=controller, topology=topology)
    fault_specs = tuple(faults or ())
    check_compatibility(
        shards=shards > 1, controller=controller is not None,
        profile_events=config.profile_events)
    topo = resolve_fct_topology(topology)
    results = execute(
        partial(fct_scenario, scheme_name=scheme_name,
                scheduler_name=scheduler_name, load=load, profile=profile,
                seed=seed, topo=topo, audit=bool(config.audit),
                fault_specs=fault_specs, controller=controller,
                shared_buffer=config.shared_buffer,
                size_distribution=size_distribution, size_scale=size_scale,
                profile_events=config.profile_events),
        shards, poll=max(profile.time_cap / 100.0, 1e-3),
        provenance_out=provenance_out)

    fault_stats = [result.payload["fault_stats"] for result in results]
    if fault_stats_out is not None and any(fault_stats):
        fault_stats_out.update(_merge_fault_stats(fault_stats))
    first = results[0].payload
    if (controller_stats_out is not None
            and first["controller_stats"] is not None):
        controller_stats_out.update(first["controller_stats"])
    if first["profile_report"] is not None:
        print(f"\n[{scheme_name} / {scheduler_name} / load {load:.2f} / "
              f"seed {seed}]")
        print(first["profile_report"])
    return fct_row(results)


def run_fct_point_multi(
    scheme_name: str,
    scheduler_name: str = "dwrr",
    load: float = 0.5,
    profile: Optional[ScaleProfile] = None,
    seeds: Sequence[int] = (1, 2, 3),
) -> FctRow:
    """One load point averaged over several workload seeds.

    Each seed generates an independent arrival sequence; the per-class
    summaries are averaged point-wise (counts summed), smoothing the
    sampling noise a single 10²-flow run carries.
    """
    from ..metrics.export import mean_of_summaries

    rows = [run_fct_point(scheme_name, scheduler_name, load, profile, seed)
            for seed in seeds]

    def merge(pick):
        values = [pick(row) for row in rows if pick(row) is not None]
        return mean_of_summaries(values) if values else None

    return FctRow(
        scheme=rows[0].scheme,
        scheduler=scheduler_name,
        load=load,
        n_flows=sum(row.n_flows for row in rows),
        completed=sum(row.completed for row in rows),
        overall=merge(lambda r: r.overall),
        small=merge(lambda r: r.small),
        medium=merge(lambda r: r.medium),
        large=merge(lambda r: r.large),
    )


def fct_sweep_point(point, provenance: Dict[str, Any]) -> FctRow:
    """What :func:`~repro.experiments.fct_sweep.run_fct_sweep` hands
    :func:`~repro.store.sweep.cached_sweep` to simulate one missed
    point."""
    (scheme_name, scheduler_name, load, profile, seed, audit, topology,
     faults, controller, shards, shared_buffer, profile_events) = point
    return run_fct_point(
        scheme_name, scheduler_name, load, profile, seed, topology=topology,
        config=RunConfig(profile_events=profile_events, audit=audit,
                         shards=shards, shared_buffer=shared_buffer),
        provenance_out=provenance, faults=faults, controller=controller)
