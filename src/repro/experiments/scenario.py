"""Shared experiment plumbing.

Three things live here:

- the **scheme registry**: :func:`make_scheme` builds a
  :class:`SchemeSpec` (marker factory + transport filter factory) for any
  of the marking schemes the paper compares, with the paper's §VI
  parameter conventions baked in as defaults;
- the **run loop**: a family's builder returns the :class:`Scenario` it
  built and :func:`run_scenario` runs it — to its deadline, or until
  its flows are all in — and reads the engine counters the run store
  records;
- the **incast runner**: most static experiments are "N senders → one
  multi-queue bottleneck → one receiver, measure per-queue throughput /
  RTT"; :func:`run_incast` packages that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

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
from ..store.spec import RunConfig
from ..transport.base import DctcpConfig
from ..transport.endpoints import FlowHandle, open_flow
from ..transport.flow import Flow

__all__ = ["SchemeSpec", "make_scheme", "scheduler_factory", "Scenario",
           "run_scenario",
           "IncastResult", "run_incast", "incast_scenario", "incast_flows",
           "with_duration", "SCHEME_NAMES"]

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


def scheduler_factory(name: str, n_queues: int) -> Callable[[], Scheduler]:
    """A factory of fresh ``name`` schedulers (``"dwrr"``, ``"wrr"`` or
    ``"wfq"``), ``n_queues`` queues each — one per port a fabric builds."""
    if name == "dwrr":
        from ..scheduling.dwrr import DwrrScheduler
        return lambda: DwrrScheduler(n_queues)
    if name == "wrr":
        from ..scheduling.wrr import WrrScheduler
        return lambda: WrrScheduler(n_queues)
    if name == "wfq":
        from ..scheduling.wfq import WfqScheduler
        return lambda: WfqScheduler(n_queues)
    raise ValueError(
        f"unknown scheduler {name!r} (use 'dwrr', 'wrr' or 'wfq')")


@dataclass
class Scenario:
    """One built experiment, ready to run.

    ``done`` is None for a fixed-duration scenario (run to
    ``deadline``); otherwise the run stops early once it returns True,
    checked every ``poll`` simulated seconds.  ``finalize`` runs after
    the last event and returns the family's result.
    """

    sim: Simulator
    deadline: float
    finalize: Callable[[], Any]
    done: Optional[Callable[[], bool]] = None
    poll: float = 0.0


#: The engine counters run-store provenance records (its ``engine``
#: block), in order.
ENGINE_COUNTERS = ("events_processed", "wheel_events_processed",
                   "heap_events_processed", "cancelled_pending",
                   "compactions")


def run_scenario(build: Callable[[], Scenario],
                 provenance_out: Optional[Dict[str, Any]] = None) -> Any:
    """Build a scenario, run it and return what it finalizes to.

    ``provenance_out``, when given, receives the run-store provenance:
    ``elapsed_s`` (build included) and the ``engine`` counters — the one
    place they are read off a simulator.
    """
    start = time.perf_counter()
    scenario = build()
    sim, deadline, done = scenario.sim, scenario.deadline, scenario.done
    if done is None:
        sim.run(until=deadline)
    else:
        while not done() and sim.now < deadline:
            sim.run(until=min(sim.now + scenario.poll, deadline))
    result = scenario.finalize()
    if provenance_out is not None:
        provenance_out["elapsed_s"] = time.perf_counter() - start
        provenance_out["engine"] = {key: getattr(sim, key)
                                    for key in ENGINE_COUNTERS}
    return result


def incast_flows(flows_per_queue: Sequence[int],
                 start_times: Optional[Sequence[float]] = None) -> List[Flow]:
    """Long-lived incast flows: queue ``q`` gets ``flows_per_queue[q]``
    flows, each from its own sender.  The receiver is the host after the
    last sender (the ``single-bottleneck`` preset's convention).  Flow
    ids are numbered from 1 in sender order, so the ids — and the ECMP
    paths hashed from them — are a function of the arguments alone."""
    n_senders = sum(flows_per_queue)
    receiver = n_senders
    flows: List[Flow] = []
    sender = 0
    for queue_index, count in enumerate(flows_per_queue):
        for _ in range(count):
            start = 0.0 if start_times is None else start_times[queue_index]
            flows.append(Flow(src=sender, dst=receiver, service=queue_index,
                              start_time=start, flow_id=sender + 1))
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
) -> Scenario:
    """Build one incast.  :func:`run_incast` resolves defaults and
    validates the flow layout against the fabric before calling this."""
    n_senders = max(flow.src for flow in flows) + 1
    receiver_id = n_senders
    sim = Simulator()
    auditor = FabricAuditor(sim) if audit else None
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
    if auditor is not None:
        auditor.attach_network(network)
    chaos = None
    if fault_specs:
        chaos = FaultScheduler(sim, fault_specs, seed=fault_seed)
        chaos.apply(network)
    meter = ThroughputMeter(sim, bin_width=duration / 100.0)
    observed.observe(meter)
    trace = QueueOccupancyTrace(observed) if trace_occupancy else None

    handles = []
    for flow in flows:
        rate = None if rate_limits is None else rate_limits.get(flow.src)
        handles.append(open_flow(network, flow, scheme.transport_config(
            record_rtt=record_rtt, rate_limit_bps=rate, init_cwnd=init_cwnd)))
    warmup = duration * warmup_fraction

    def finalize() -> IncastResult:
        if auditor is not None:
            auditor.verify_fabric()
        return IncastResult(
            scheme=scheme.name, duration=duration, warmup=warmup,
            queue_gbps={q: meter.average_bps(q, warmup, duration) / 1e9
                        for q in range(observed.n_queues)},
            network=network, meter=meter, handles=handles, trace=trace,
            chaos=chaos)

    return Scenario(sim=sim, deadline=duration, finalize=finalize)


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
    topology: Union[str, TopologySpec, None] = None,
) -> IncastResult:
    """Run one incast scenario to completion and measure per-queue rates.

    ``rate_limits`` maps flow *src host id* → pacing rate (the paper's
    "start a 5 Gbps TCP flow" sources).  Throughput is averaged over the
    post-warmup window.  Execution knobs come from ``config``
    (:class:`~repro.store.RunConfig`): ``config.duration`` is the
    simulated time (default 0.04 s) and ``config.audit`` attaches a
    :class:`~repro.sim.audit.FabricAuditor` to the whole fabric and runs
    a final conservation pass.
    ``faults`` / ``shared_buffer`` / ``topology`` follow the one
    resolution rule (:meth:`~repro.store.RunConfig.resolve`): an
    explicit argument wins, None means the ``config`` field of the same
    name.  ``faults`` injects a deterministic chaos layer
    (:mod:`repro.sim.faults`) over the fabric, with RNG streams derived
    from ``fault_seed``.  ``shared_buffer`` gives the switch a
    :class:`~repro.net.sharedbuf.SharedBuffer` built from the spec.
    ``topology`` is a :class:`~repro.net.topology.TopologySpec` (or
    its string spelling; unset everywhere, the historical
    single-bottleneck fabric): on a multi-switch fabric the flows'
    receiver keeps the single-bottleneck convention (host
    ``n_senders``) and the observed port is the receiver's host-facing
    downlink — the port the incast converges on.
    """
    config = config or RunConfig()
    duration = config.duration if config.duration is not None else 0.04
    faults, shared_buffer, topology = config.resolve(
        faults=faults, shared_buffer=shared_buffer, topology=topology)
    topo = as_topology(topology) or TopologySpec(preset="single-bottleneck")
    fault_specs = tuple(faults or ())
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
    return run_scenario(
        partial(incast_scenario, scheme=scheme,
                scheduler_factory=scheduler_factory, flows=list(flows),
                duration=duration, topo=topo,
                warmup_fraction=warmup_fraction, link_rate=link_rate,
                record_rtt=record_rtt, trace_occupancy=trace_occupancy,
                rate_limits=rate_limits, init_cwnd=init_cwnd,
                buffer_packets=buffer_packets,
                audit=bool(config.audit), fault_specs=fault_specs,
                fault_seed=fault_seed, shared_buffer=shared_buffer))
