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
WFQ (it raises — no round concept), matching the paper.  The mark point
and the port threshold are arguments here (AB4 and AB5 vary them).

This module simulates one point (:func:`run_fct_point`); the row, the
point identity and the sweep are the
:data:`~repro.experiments.families.FCT` row.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Mapping, Optional, Sequence, Union

from ..ecn.base import MarkPoint
from ..metrics.fct import FctCollector, SizeClass
from ..net.sharedbuf import SharedBufferSpec
from ..net.topology import DEFAULT_LINK_DELAY, TopologySpec
from ..sim.audit import FabricAuditor
from ..sim.engine import Simulator
from ..sim.faults import FaultScheduler, FaultSpec
from ..sim.rng import make_rng
from ..store.spec import RunConfig
from ..transport.endpoints import open_flow
from ..workloads.distributions import PAPER_MIX, SizeDistribution
from ..workloads.generator import PoissonFlowGenerator
from .families import FctRow, resolve_fct_topology
from .scale import BENCH, ScaleProfile
from .scenario import (Scenario, SchemeSpec, make_scheme, run_scenario,
                       scheduler_factory)

__all__ = ["largescale_scheme", "fabric_scheme", "fct_scenario",
           "run_fct_point", "fct_sweep_point"]

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


def largescale_scheme(
    name: str, link_rate: float = 10e9, base_rtt_hops: int = 4,
    link_delay: float = DEFAULT_LINK_DELAY,
    mark_point: MarkPoint = MarkPoint.ENQUEUE,
    port_threshold_packets: float = PORT_THRESHOLD_PACKETS,
) -> SchemeSpec:
    """The §VI-B parameterization of one scheme.

    The paper's absolute numbers (PMSB(e) RTT threshold 85.2 µs, TCN
    threshold 78.2 µs) encode *their* fabric's base RTT and a 65-packet
    standard threshold; we recompute both from our fabric so the
    dimensionless design stays the paper's: the PMSB(e) filter triggers
    one port-threshold's worth of queueing above the base RTT, and TCN's
    sojourn threshold is the drain time of the standard threshold.
    """
    base_rtt = fabric_base_rtt(link_rate, hops=base_rtt_hops,
                               link_delay=link_delay)
    port_drain = port_threshold_packets * 1500 * 8.0 / link_rate
    return make_scheme(
        name,
        link_rate=link_rate,
        n_queues=N_SERVICES,
        port_threshold_packets=port_threshold_packets,
        standard_threshold_packets=65.0,
        rtt_threshold=base_rtt + port_drain,
        mark_point=mark_point,
    )


def fabric_scheme(name: str, topo: TopologySpec, profile: ScaleProfile,
                  mark_point: MarkPoint = MarkPoint.ENQUEUE,
                  port_threshold_packets: float = PORT_THRESHOLD_PACKETS,
                  ) -> SchemeSpec:
    """:func:`largescale_scheme` for the fabric ``topo`` builds under
    ``profile``: the link rate and delay the build uses (explicit spec
    fields win over the profile's rate and the default hop delay) and
    the fabric's longest path."""
    link_rate, link_delay = topo.physics(profile.link_rate)
    return largescale_scheme(name, link_rate, topo.base_rtt_hops, link_delay,
                             mark_point, port_threshold_packets)


def fct_scenario(
    scheme_name: str,
    scheduler_name: str,
    load: float,
    profile: ScaleProfile,
    seed: int,
    topo: TopologySpec,
    audit: bool = False,
    fault_specs: Sequence[FaultSpec] = (),
    shared_buffer: Optional[SharedBufferSpec] = None,
    size_distribution: Optional[SizeDistribution] = None,
    size_scale: Optional[float] = None,
    profile_events: bool = False,
    mark_point: MarkPoint = MarkPoint.ENQUEUE,
    port_threshold_packets: float = PORT_THRESHOLD_PACKETS,
) -> Scenario:
    """Build one FCT point.  :func:`run_fct_point` resolves defaults
    before calling this; the scenario finalizes to a dict holding the
    :class:`FctRow` and the run's fault and profiler reports."""
    scheme = fabric_scheme(scheme_name, topo, profile, mark_point,
                           port_threshold_packets)
    rng = make_rng(seed)
    sim = Simulator()
    auditor = FabricAuditor(sim) if audit else None
    profiler = None
    if profile_events:
        from ..sim.profile import SimProfiler
        profiler = SimProfiler(sim, sample_interval=profile.time_cap / 200.0)
        profiler.start()
    network = topo.build(
        sim, scheduler_factory(scheduler_name, N_SERVICES),
        scheme.marker_factory,
        shared_buffer=shared_buffer, default_fabric=profile.fabric,
        link_rate=profile.link_rate,
    )
    if auditor is not None:
        auditor.attach_network(network)
    if profiler is not None:
        for port in network.ports():
            port.observe(profiler)
    chaos = None
    if fault_specs:
        chaos = FaultScheduler(sim, fault_specs, seed=seed)
        chaos.apply(network)
    if size_distribution is None:
        size_distribution = PAPER_MIX.scaled(profile.size_scale)
        size_scale = profile.size_scale
    elif size_scale is None:
        size_scale = 1.0
    # Offered load is a share of the rate the links were built with.
    generator = PoissonFlowGenerator(
        rng, [h.host_id for h in network.hosts], size_distribution,
        load=load, link_rate_bps=topo.physics(profile.link_rate)[0],
        n_services=N_SERVICES,
    )
    flows = generator.generate(n_flows=profile.largescale_flows)

    collector = FctCollector(size_scale=size_scale)
    transport = scheme.transport_config(init_cwnd=16.0)
    for flow in flows:
        open_flow(network, flow, transport,
                  on_complete=collector.on_complete)

    def finalize() -> Dict[str, Any]:
        if auditor is not None:
            auditor.verify_fabric()
        if profiler is not None:
            profiler.stop()
        by_class = collector.summary_by_class()
        return {
            "row": FctRow(
                scheme=scheme.name, scheduler=scheduler_name, load=load,
                n_flows=len(flows), completed=len(collector),
                overall=collector.summary(),
                small=by_class[SizeClass.SMALL],
                medium=by_class[SizeClass.MEDIUM],
                large=by_class[SizeClass.LARGE]),
            "fault_stats": chaos.stats() if chaos is not None else None,
            "profile_report": (profiler.report() if profiler is not None
                               else None),
        }

    return Scenario(sim=sim, deadline=flows[-1].start_time + profile.time_cap,
                    finalize=finalize,
                    done=lambda: len(collector) >= len(flows),
                    poll=max(profile.time_cap / 100.0, 1e-3))


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
    mark_point: MarkPoint = MarkPoint.ENQUEUE,
    port_threshold_packets: float = PORT_THRESHOLD_PACKETS,
) -> FctRow:
    """Run one load point for one scheme and collect FCT statistics.

    ``faults`` / ``topology`` follow the one resolution
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
    fabric.
    ``provenance_out``, when given, is filled with wall time and engine
    counters for run-store provenance.  ``faults`` injects a chaos
    layer (:mod:`repro.sim.faults`) over the fabric's links, seeded
    from the point's ``seed``; ``fault_stats_out`` receives the
    per-link drop breakdown afterwards.  ``mark_point`` and
    ``port_threshold_packets`` vary the scheme (:func:`largescale_scheme`).
    """
    config = config or RunConfig()
    if profile is None:
        profile = config.profile if config.profile is not None else BENCH
    if seed is None:
        seed = config.seed if config.seed is not None else 1
    faults, topology = config.resolve(faults=faults, topology=topology)
    result = run_scenario(
        partial(fct_scenario, scheme_name=scheme_name,
                scheduler_name=scheduler_name, load=load, profile=profile,
                seed=seed, topo=resolve_fct_topology(topology),
                audit=bool(config.audit), fault_specs=tuple(faults or ()),
                shared_buffer=config.shared_buffer,
                size_distribution=size_distribution, size_scale=size_scale,
                profile_events=config.profile_events, mark_point=mark_point,
                port_threshold_packets=port_threshold_packets),
        provenance_out)
    if fault_stats_out is not None and result["fault_stats"] is not None:
        fault_stats_out.update(result["fault_stats"])
    if result["profile_report"] is not None:
        print(f"\n[{scheme_name} / {scheduler_name} / load {load:.2f} / "
              f"seed {seed}]")
        print(result["profile_report"])
    return result["row"]


def fct_sweep_point(point: Mapping[str, Any],
                    provenance: Dict[str, Any]) -> FctRow:
    """The ``FCT`` row's point function: simulate one missed point."""
    return run_fct_point(
        point["scheme_name"], point["scheduler_name"], point["load"],
        point["profile"], point["seed"], topology=point["topology"],
        config=RunConfig(profile_events=point["profile_events"],
                         audit=point["audit"],
                         shared_buffer=point["shared_buffer"]),
        provenance_out=provenance, faults=point["faults"])
