"""Shared experiment plumbing.

Two things live here:

- the **scheme registry**: :func:`make_scheme` builds a
  :class:`SchemeSpec` (marker factory + transport filter factory) for any
  of the marking schemes the paper compares, with the paper's §VI
  parameter conventions baked in as defaults;
- the **incast runner**: most static experiments are "N senders → one
  multi-queue bottleneck → one receiver, measure per-queue throughput /
  RTT"; :func:`run_incast` packages that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..control.controller import ControllerRuntime, ControllerSpec
from ..core.pmsb import PmsbMarker
from ..core.pmsb_endhost import AcceptAllFilter, EcnFilter, RttEcnFilter
from ..ecn.base import Marker, MarkPoint, NullMarker
from ..ecn.mq_ecn import MqEcnMarker
from ..ecn.per_port import PerPortMarker
from ..ecn.per_queue import PerQueueMarker, fractional_thresholds, standard_thresholds
from ..ecn.tcn import TcnMarker
from ..metrics.queue_trace import QueueOccupancyTrace
from ..metrics.throughput import ThroughputMeter
from ..net.packet import MTU_BYTES
from ..net.sharedbuf import SharedBufferSpec
from ..net.topology import Network, TopologySpec, as_topology
from ..scheduling.base import Scheduler
from ..sim.audit import FabricAuditor
from ..sim.engine import Simulator
from ..sim.faults import FaultScheduler, FaultSpec
from ..sim.shard import (ShardResult, ShardScenario, cut_fabric,
                         verify_fabric)
from ..store.spec import RunConfig, check_compatibility
from ..transport.base import DctcpConfig
from ..transport.endpoints import FlowHandle
from ..transport.flow import Flow
from .sharded import execute, wire_local_flows

__all__ = ["SchemeSpec", "make_scheme", "IncastResult", "run_incast",
           "incast_scenario", "incast_result", "incast_flows",
           "with_duration", "check_compatibility", "SCHEME_NAMES"]

SCHEME_NAMES = (
    "pmsb",
    "pmsb-e",
    "mq-ecn",
    "tcn",
    "per-port",
    "per-queue-standard",
    "per-queue-fractional",
    "none",
)


@dataclass
class SchemeSpec:
    """A marking scheme: what the switch does + what the sender does."""

    name: str
    marker_factory: Callable[[], Marker]
    ecn_filter_factory: Callable[[], EcnFilter] = field(default=AcceptAllFilter)

    def transport_config(self, **overrides) -> DctcpConfig:
        """A DCTCP config wired with this scheme's sender-side filter."""
        return DctcpConfig(ecn_filter_factory=self.ecn_filter_factory, **overrides)


def _drain_time(packets: float, link_rate: float) -> float:
    """Time to drain ``packets`` MTUs at ``link_rate`` (TCN/MQ-ECN units)."""
    return packets * MTU_BYTES * 8.0 / link_rate


def make_scheme(
    name: str,
    link_rate: float = 10e9,
    n_queues: int = 2,
    weights: Optional[Sequence[float]] = None,
    port_threshold_packets: float = 12.0,
    standard_threshold_packets: float = 16.0,
    rtt_threshold: float = 40e-6,
    tcn_threshold: Optional[float] = None,
    mark_point: MarkPoint = MarkPoint.ENQUEUE,
    blindness_scale: float = 1.0,
) -> SchemeSpec:
    """Build a :class:`SchemeSpec` by name.

    Defaults follow the paper's static experiments: PMSB/PMSB(e) port
    threshold 12 packets, PMSB(e) RTT threshold 40 µs, TCN sojourn
    threshold = drain time of the standard threshold, MQ-ECN/per-queue
    standard threshold 16 packets.
    """
    if weights is None:
        weights = [1.0] * n_queues
    if tcn_threshold is None:
        tcn_threshold = _drain_time(standard_threshold_packets, link_rate)
    rtt_lambda = _drain_time(standard_threshold_packets, link_rate)

    if name == "pmsb":
        return SchemeSpec(
            name="PMSB",
            marker_factory=lambda: PmsbMarker(
                port_threshold_packets, mark_point, blindness_scale
            ),
        )
    if name == "pmsb-e":
        return SchemeSpec(
            name="PMSB(e)",
            marker_factory=lambda: PerPortMarker(port_threshold_packets, mark_point),
            ecn_filter_factory=lambda: RttEcnFilter(rtt_threshold),
        )
    if name == "mq-ecn":
        # K_i = min(quantum_i/T_round, C) × RTT × λ with RTT·λ chosen so an
        # unconstrained queue gets the standard threshold.
        return SchemeSpec(
            name="MQ-ECN",
            marker_factory=lambda: MqEcnMarker(rtt=rtt_lambda, lam=1.0,
                                               mark_point=mark_point),
        )
    if name == "tcn":
        return SchemeSpec(
            name="TCN",
            marker_factory=lambda: TcnMarker(tcn_threshold),
        )
    if name == "per-port":
        return SchemeSpec(
            name="Per-Port",
            marker_factory=lambda: PerPortMarker(port_threshold_packets, mark_point),
        )
    if name == "per-queue-standard":
        return SchemeSpec(
            name="Per-Queue(std)",
            marker_factory=lambda: PerQueueMarker(
                standard_thresholds(n_queues, standard_threshold_packets), mark_point
            ),
        )
    if name == "per-queue-fractional":
        return SchemeSpec(
            name="Per-Queue(frac)",
            marker_factory=lambda: PerQueueMarker(
                fractional_thresholds(weights, standard_threshold_packets), mark_point
            ),
        )
    if name == "none":
        return SchemeSpec(name="DropTail", marker_factory=NullMarker)
    raise ValueError(f"unknown scheme {name!r}; choose from {SCHEME_NAMES}")


def incast_flows(flows_per_queue: Sequence[int],
                 start_times: Optional[Sequence[float]] = None) -> List[Flow]:
    """Long-lived incast flows: queue ``q`` gets ``flows_per_queue[q]``
    flows, each from its own sender.  The receiver is the host after the
    last sender (the ``single-bottleneck`` preset's convention)."""
    n_senders = sum(flows_per_queue)
    receiver = n_senders
    flows: List[Flow] = []
    sender = 0
    for queue_index, count in enumerate(flows_per_queue):
        for _ in range(count):
            start = 0.0 if start_times is None else start_times[queue_index]
            flows.append(Flow(src=sender, dst=receiver, service=queue_index,
                              start_time=start))
            sender += 1
    return flows


@dataclass
class IncastResult:
    """Everything an incast experiment might want to report."""

    scheme: str
    duration: float
    warmup: float
    queue_gbps: Dict[int, float]
    network: Network
    meter: ThroughputMeter
    handles: List[FlowHandle]
    trace: Optional[QueueOccupancyTrace] = None
    #: Present when the run injected faults; ``chaos.stats()`` has the
    #: per-link drop breakdown.
    chaos: Optional[FaultScheduler] = None

    @property
    def total_gbps(self) -> float:
        return sum(self.queue_gbps.values())

    def rtt_samples(self, queue_index: Optional[int] = None) -> List[float]:
        """All RTT samples, optionally restricted to one queue's flows."""
        samples: List[float] = []
        for handle in self.handles:
            if queue_index is not None and handle.flow.service != queue_index:
                continue
            if handle.sender.rtt_samples:
                samples.extend(handle.sender.rtt_samples)
        return samples


def incast_scenario(
    shard_id: int,
    n_shards: int,
    scheme: SchemeSpec,
    scheduler_factory: Callable[[], Scheduler],
    flows: Sequence[Flow],
    duration: float,
    topo: TopologySpec,
    warmup_fraction: float = 1.0 / 3.0,
    link_rate: float = 10e9,
    record_rtt: bool = False,
    trace_occupancy: bool = False,
    rate_limits: Optional[Dict[int, float]] = None,
    init_cwnd: float = 16.0,
    buffer_packets: int = 1000,
    audit: bool = False,
    fault_specs: Sequence[FaultSpec] = (),
    fault_seed: int = 0,
    shared_buffer: Optional[SharedBufferSpec] = None,
    controller: Optional[ControllerSpec] = None,
) -> ShardScenario:
    """Build one shard of an incast — the whole incast at
    ``n_shards == 1``.  :func:`run_incast` resolves defaults, validates
    the flow layout against the fabric and rejects unsupported
    combinations before calling this."""
    n_senders = max(flow.src for flow in flows) + 1
    receiver_id = n_senders
    sim = Simulator()
    if audit:
        FabricAuditor(sim)
    network = topo.build(
        sim, scheduler_factory, scheme.marker_factory,
        shared_buffer=shared_buffer, default_senders=n_senders,
        link_rate=link_rate, buffer_packets=buffer_packets,
    )
    bottleneck = network.observed_ports("bottleneck")
    observed = bottleneck[0] if bottleneck else None
    if observed is None:
        observed = network.host_facing_port(receiver_id)
        if observed is None:
            raise ValueError(
                f"topology {topo.preset!r} has no port facing the receiver "
                f"(host {receiver_id})")
        network.register_observed("bottleneck", observed)
    fabric = cut_fabric(network, shard_id, n_shards)
    chaos = None
    if fault_specs:
        chaos = FaultScheduler(sim, fault_specs, seed=fault_seed)
        chaos.apply(network)
    runtime = None
    if controller is not None:
        runtime = ControllerRuntime(sim, network.all_marked_ports(),
                                    controller.build(), controller.period)
        record_rtt = record_rtt or controller.wants_rtt
    # The observed port transmits only in the shard that owns the
    # receiver's leaf; the other shards have nothing to measure.
    meter = trace = None
    if fabric is None or receiver_id in fabric.local_host_ids:
        meter = ThroughputMeter(sim, bin_width=duration / 100.0)
        meter.attach_port(observed)
        trace = QueueOccupancyTrace(observed) if trace_occupancy else None

    def make_config(flow: Flow) -> DctcpConfig:
        rate = None if rate_limits is None else rate_limits.get(flow.src)
        return scheme.transport_config(
            record_rtt=record_rtt, rate_limit_bps=rate, init_cwnd=init_cwnd)

    handles = wire_local_flows(network, fabric, flows, make_config)
    if runtime is not None:
        for handle in handles:
            runtime.add_rtt_source(handle.sender)
        runtime.start()
    warmup = duration * warmup_fraction

    def finalize() -> Dict[str, Any]:
        if runtime is not None:
            runtime.stop()
        verify_fabric(network, fabric)
        payload: Dict[str, Any] = {
            "scheme": scheme.name, "duration": duration, "warmup": warmup,
            "queue_gbps": None if meter is None else {
                q: meter.average_bps(q, warmup, duration) / 1e9
                for q in range(observed.n_queues)},
        }
        if fabric is None:
            # Nothing pickles an in-process payload: hand back the live
            # objects (sharded runs leave them in the workers).
            payload["live"] = dict(network=network, meter=meter,
                                   handles=handles, trace=trace, chaos=chaos)
        return payload

    return ShardScenario(sim=sim, fabric=fabric, deadline=duration,
                         total_units=None, completed=lambda: 0,
                         finalize=finalize)


def incast_result(results: Sequence[ShardResult]) -> IncastResult:
    """The :class:`IncastResult` of one executed :func:`incast_scenario`:
    rates from the shard that metered the observed port, live objects
    only from an in-process run."""
    metered = [result.payload for result in results
               if result.payload["queue_gbps"] is not None]
    if len(metered) != 1:
        raise RuntimeError(f"{len(metered)} shards reported the observed "
                           "port's rates; expected exactly one")
    payload = metered[0]
    live = payload.get("live") or dict(network=None, meter=None, handles=[],
                                       trace=None, chaos=None)
    return IncastResult(
        scheme=payload["scheme"], duration=payload["duration"],
        warmup=payload["warmup"], queue_gbps=payload["queue_gbps"], **live)


def with_duration(config: Optional[RunConfig], default: float) -> RunConfig:
    """``config`` with its duration settled: its own when set, else the
    calling figure helper's ``default`` (each paper figure has one)."""
    config = config or RunConfig()
    if config.duration is not None:
        return config
    return config.evolve(duration=default)


def run_incast(
    scheme: SchemeSpec,
    scheduler_factory: Callable[[], Scheduler],
    flows: Sequence[Flow],
    warmup_fraction: float = 1.0 / 3.0,
    link_rate: float = 10e9,
    record_rtt: bool = False,
    trace_occupancy: bool = False,
    rate_limits: Optional[Dict[int, float]] = None,
    init_cwnd: float = 16.0,
    buffer_packets: int = 1000,
    config: Optional[RunConfig] = None,
    faults: Optional[Sequence[FaultSpec]] = None,
    fault_seed: int = 0,
    shared_buffer: Optional[SharedBufferSpec] = None,
    controller: Optional[ControllerSpec] = None,
    topology: Union[str, TopologySpec, None] = None,
) -> IncastResult:
    """Run one incast scenario to completion and measure per-queue rates.

    ``rate_limits`` maps flow *src host id* → pacing rate (the paper's
    "start a 5 Gbps TCP flow" sources).  Throughput is averaged over the
    post-warmup window.  Execution knobs come from ``config``
    (:class:`~repro.store.RunConfig`): ``config.duration`` is the
    simulated time (default 0.04 s) and ``config.audit`` attaches a
    :class:`~repro.sim.audit.FabricAuditor` to the whole fabric and runs
    a final conservation pass.  ``config.shards`` spreads the same
    :func:`incast_scenario` over that many conservative-lookahead shards
    (:func:`~repro.experiments.sharded.execute`); the result then
    carries ``queue_gbps`` only — the live ``network`` / ``meter`` /
    ``handles`` stay in the workers and come back None / empty.
    Combinations the runner cannot honour (shards with a controller, an
    occupancy trace, ``record_rtt`` or a single-bottleneck fabric) are
    rejected up front by :func:`check_compatibility`.
    ``faults`` / ``shared_buffer`` / ``controller`` / ``topology``
    follow the one resolution rule
    (:meth:`~repro.store.RunConfig.resolve`): an explicit argument wins,
    None means the ``config`` field of the same name.  ``faults``
    injects a deterministic chaos layer (:mod:`repro.sim.faults`) over
    the fabric, with RNG streams derived from ``fault_seed``.
    ``shared_buffer`` gives the switch a
    :class:`~repro.net.sharedbuf.SharedBuffer` built from the spec.
    ``controller`` attaches a closed-loop
    :class:`~repro.control.ControllerRuntime` retuning marker thresholds
    on the spec's period; controllers that consume RTT force
    ``record_rtt`` on.  ``topology`` is a
    :class:`~repro.net.topology.TopologySpec` (or its string spelling;
    unset everywhere, the historical single-bottleneck fabric): on a
    multi-switch fabric the flows' receiver keeps the single-bottleneck
    convention (host ``n_senders``) and the observed port is the
    receiver's host-facing downlink — the port the incast converges on.
    """
    config = config or RunConfig()
    duration = config.duration if config.duration is not None else 0.04
    shards = config.shards if config.shards is not None else 1
    faults, shared_buffer, controller, topology = config.resolve(
        faults=faults, shared_buffer=shared_buffer, controller=controller,
        topology=topology)
    topo = as_topology(topology) or TopologySpec(preset="single-bottleneck")
    fault_specs = tuple(faults or ())
    check_compatibility(
        shards=shards > 1, controller=controller is not None,
        trace_occupancy=trace_occupancy, record_rtt=record_rtt,
        single_bottleneck=topo.preset == "single-bottleneck")
    n_senders = max(flow.src for flow in flows) + 1
    if (topo.preset == "single-bottleneck" and topo.senders
            and topo.senders != n_senders):
        raise ValueError(
            f"topology pins {topo.senders} senders but the flow layout "
            f"uses {n_senders} (the receiver is host n_senders)")
    n_hosts = topo.n_hosts(default_senders=n_senders)
    if n_hosts <= n_senders:
        raise ValueError(
            f"topology {topo.preset!r} has {n_hosts} hosts but the "
            f"flow layout needs {n_senders} senders plus a receiver")
    return incast_result(execute(
        partial(incast_scenario, scheme=scheme,
                scheduler_factory=scheduler_factory, flows=list(flows),
                duration=duration, topo=topo,
                warmup_fraction=warmup_fraction, link_rate=link_rate,
                record_rtt=record_rtt, trace_occupancy=trace_occupancy,
                rate_limits=rate_limits, init_cwnd=init_cwnd,
                buffer_packets=buffer_packets,
                audit=bool(config.audit), fault_specs=fault_specs,
                fault_seed=fault_seed, shared_buffer=shared_buffer,
                controller=controller),
        shards))
