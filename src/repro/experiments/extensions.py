"""Extension experiments beyond the paper's figures.

Two claims the paper makes in prose but never evaluates:

- **E-POOL** (§II-B, last paragraph): "We believe per service pool will
  also violate weighted fair sharing, because queues belonging to
  different ports may interfere with each other."  We build exactly that
  scenario — two output ports drawing from one shared buffer pool with a
  pool-level marking threshold — and measure the cross-port victim
  effect: a lone flow on an otherwise idle port is marked (and throttled)
  because the *other* port fills the pool.

- **E-COEXIST** (§V-B): PMSB(e) "can coexist with other ECN-based
  transports like DCTCP".  We run the victim scenario where *only* the
  victim flow deploys the PMSB(e) filter while the other eight senders
  run stock DCTCP, modelling incremental deployment: the upgraded sender
  should reclaim its fair share without disturbing the others.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from ..core.pmsb_endhost import RttEcnFilter
from ..ecn.service_pool import BufferPool, ServicePoolMarker
from ..metrics.throughput import ThroughputMeter
from ..net.host import Host
from ..net.link import Link
from ..net.port import Port
from ..net.switch import Switch
from ..net.topology import DEFAULT_LINK_DELAY, Network, TopologySpec
from ..scheduling.dwrr import DwrrScheduler
from ..scheduling.fifo import FifoScheduler
from ..sim.audit import FabricAuditor
from ..sim.engine import Simulator
from ..store.runstore import RunStore, open_store
from ..store.spec import ExperimentSpec, RunConfig
from ..store.sweep import cached_sweep
from ..transport.base import DctcpConfig
from ..transport.endpoints import open_flow
from ..transport.flow import Flow
from .scenario import incast_flows

__all__ = ["PoolVictimResult", "service_pool_victim",
           "CoexistenceResult", "pmsbe_coexistence",
           "MicroburstResult", "microburst_absorption",
           "BUFFER_POLICIES",
           "TransportVictimResult", "transport_agnostic_victim",
           "IncastRow", "incast_point_spec", "incast_sweep"]


# ---------------------------------------------------------------------------
# E-POOL: per-service-pool marking across ports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoolVictimResult:
    """Cross-port interference under shared-pool marking."""

    pool_threshold: float
    flows_port_b: int
    port_a_gbps: float       # 1 flow, otherwise idle port
    port_b_gbps: float       # N competing flows
    pool_marked: int

    @property
    def port_a_utilization(self) -> float:
        """Port A's lone flow should reach ~1.0 of its own link."""
        return self.port_a_gbps / 10.0


def _dual_port_network(
    sim: Simulator,
    n_senders: int,
    make_output_port,
    link_rate: float,
) -> Network:
    """One switch, two independent output ports A and B.

    Hosts ``0..n_senders-1`` are senders; host ``n_senders`` is receiver
    A (behind port A), host ``n_senders+1`` receiver B (behind port B).
    ``make_output_port(dst_host, name)`` builds each output port, so
    callers control marking, buffering and pool membership.
    """
    network = Network(sim)
    switch = Switch(sim, name="sw0")
    network.switches.append(switch)

    hosts = [Host(sim, i) for i in range(n_senders + 2)]
    network.hosts = hosts
    receiver_a = hosts[n_senders]
    receiver_b = hosts[n_senders + 1]

    for label, receiver in (("A", receiver_a), ("B", receiver_b)):
        index = switch.add_port(make_output_port(receiver, f"sw0:port{label}"))
        switch.set_route(receiver.host_id, [index])
        up = Link(sim, link_rate, DEFAULT_LINK_DELAY, switch)
        receiver.attach_nic(Port(sim, up, FifoScheduler(1),
                                 name=f"{receiver.name}:nic"))
    for sender in hosts[:n_senders]:
        up = Link(sim, link_rate, DEFAULT_LINK_DELAY, switch)
        sender.attach_nic(Port(sim, up, FifoScheduler(1),
                               name=f"{sender.name}:nic"))
        back = Link(sim, link_rate, DEFAULT_LINK_DELAY, sender)
        back_index = switch.add_port(
            Port(sim, back, FifoScheduler(1), name=f"sw0:to_{sender.name}")
        )
        switch.set_route(sender.host_id, [back_index])
    return network


def _attach_auditor(sim: Simulator,
                    audit: Optional[bool]) -> Optional[FabricAuditor]:
    """Shared opt-in audit wiring for the extension builders."""
    return FabricAuditor(sim) if audit else None


def service_pool_victim(
    pool_threshold: float = 16.0,
    flows_port_b: int = 8,
    link_rate: float = 10e9,
    config: Optional[RunConfig] = None,
) -> PoolVictimResult:
    """Validate the paper's per-service-pool conjecture.

    Port A carries one flow to its own receiver; port B carries
    ``flows_port_b`` flows to a different receiver.  With separate links
    the fair outcome is both ports at line rate; pool-level marking
    should instead throttle port A's flow because port B fills the pool.
    """
    config = config or RunConfig()
    duration = config.duration if config.duration is not None else 0.03
    audit = config.audit
    sim = Simulator()
    auditor = _attach_auditor(sim, audit)
    pool = BufferPool(name="service-pool")

    def pooled_port(dst_host, name):
        link = Link(sim, link_rate, DEFAULT_LINK_DELAY, dst_host, name=name)
        marker = ServicePoolMarker(pool, pool_threshold)
        return Port(sim, link, FifoScheduler(1), marker,
                    buffer_packets=1000, name=name, pool=pool)

    n_senders = 1 + flows_port_b
    network = _dual_port_network(sim, n_senders, pooled_port, link_rate)
    if auditor is not None:
        auditor.attach_network(network)
    receiver_a = n_senders
    receiver_b = n_senders + 1
    handles = [open_flow(network, Flow(src=0, dst=receiver_a))]
    for sender in range(1, n_senders):
        handles.append(open_flow(network, Flow(src=sender, dst=receiver_b)))
    sim.run(until=duration)
    if auditor is not None:
        auditor.verify_fabric()

    window = duration - duration / 3
    port_a, port_b = network.switches[0].ports[0], network.switches[0].ports[1]
    return PoolVictimResult(
        pool_threshold=pool_threshold,
        flows_port_b=flows_port_b,
        port_a_gbps=handles[0].receiver.bytes_received * 8 / duration / 1e9,
        port_b_gbps=sum(h.receiver.bytes_received for h in handles[1:])
        * 8 / duration / 1e9,
        pool_marked=port_a.marker.packets_marked
        + port_b.marker.packets_marked,
    )


# ---------------------------------------------------------------------------
# E-COEXIST: incremental PMSB(e) deployment next to stock DCTCP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoexistenceResult:
    """Victim scenario where only some senders deploy PMSB(e)."""

    victim_gbps: float
    others_gbps: float
    victim_filtered_marks: int

    @property
    def fair_share_error(self) -> float:
        total = self.victim_gbps + self.others_gbps
        if total == 0:
            return 0.0
        fair = total / 2.0
        return abs(self.victim_gbps - fair) / fair


def pmsbe_coexistence(
    victim_upgraded: bool = True,
    port_threshold: float = 16.0,
    rtt_threshold: float = 40e-6,
    flows_queue2: int = 8,
    link_rate: float = 10e9,
    config: Optional[RunConfig] = None,
) -> CoexistenceResult:
    """§V-B deployability: upgrade *only* the victim sender to PMSB(e).

    The switch runs plain per-port marking; the eight queue-2 senders run
    stock DCTCP throughout.  With ``victim_upgraded=False`` this is the
    Fig. 3 baseline; with ``True`` the lone upgraded sender should
    reclaim its 5 Gbps share while queue 2 still converges to its own.
    """
    from ..ecn.per_port import PerPortMarker

    config = config or RunConfig()
    duration = config.duration if config.duration is not None else 0.03
    audit = config.audit

    sim = Simulator()
    auditor = _attach_auditor(sim, audit)
    network = TopologySpec(preset="single-bottleneck").build(
        sim, lambda: DwrrScheduler(2),
        lambda: PerPortMarker(port_threshold),
        default_senders=1 + flows_queue2, link_rate=link_rate,
    )
    if auditor is not None:
        auditor.attach_network(network)
    meter = ThroughputMeter(sim, bin_width=1e-3)
    meter.attach_port(network.observed_ports("bottleneck")[0])

    flows = incast_flows([1, flows_queue2])
    handles = []
    for flow in flows:
        if flow.service == 0 and victim_upgraded:
            transport = DctcpConfig(
                ecn_filter_factory=lambda: RttEcnFilter(rtt_threshold)
            )
        else:
            transport = DctcpConfig()
        handles.append(open_flow(network, flow, transport))
    sim.run(until=duration)
    if auditor is not None:
        auditor.verify_fabric()

    victim_sender = handles[0].sender
    filtered = getattr(victim_sender.ecn_filter, "marks_ignored", 0)
    return CoexistenceResult(
        victim_gbps=meter.average_bps(0, duration / 3, duration) / 1e9,
        others_gbps=meter.average_bps(1, duration / 3, duration) / 1e9,
        victim_filtered_marks=filtered,
    )


# ---------------------------------------------------------------------------
# E-BURST: micro-burst absorption under shared-buffer policies
# ---------------------------------------------------------------------------

BUFFER_POLICIES = ("static", "shared", "dt")


@dataclass(frozen=True)
class MicroburstResult:
    """Outcome of one incast burst under one buffer policy."""

    policy: str
    hog_active: bool
    burst_fanin: int
    burst_drops: int
    burst_completed: int
    burst_fct_p99: Optional[float]
    hog_gbps: float


def microburst_absorption(
    policy: str = "dt",
    hog_active: bool = True,
    burst_fanin: int = 32,
    burst_size_bytes: int = 15_000,
    total_buffer_packets: int = 200,
    dt_alpha: float = 1.0,
    n_hog_flows: int = 4,
    link_rate: float = 10e9,
    config: Optional[RunConfig] = None,
) -> MicroburstResult:
    """Incast micro-burst into port B while port A may be hogging buffer.

    The switch's two output ports share ``total_buffer_packets`` of
    memory under one of three policies (the design space behind the
    paper's micro-burst references [13]/[14]):

    - ``static``: hard split, each port gets half;
    - ``shared``: complete sharing, one global cap;
    - ``dt``: Choudhury–Hahne dynamic threshold with ``dt_alpha``.

    Port A carries ``n_hog_flows`` long-lived flows (when ``hog_active``)
    that build a standing queue; at t = 5 ms a synchronized
    ``burst_fanin``-way incast of small flows hits port B.  Complete
    sharing lets the hog starve the burst of buffer; a static split
    wastes half the memory when the hog is absent; DT adapts.
    """
    if policy not in BUFFER_POLICIES:
        raise ValueError(f"unknown policy {policy!r}; use {BUFFER_POLICIES}")
    config = config or RunConfig()
    duration = config.duration if config.duration is not None else 0.05
    audit = config.audit
    sim = Simulator()
    if policy == "shared":
        pool: Optional[BufferPool] = BufferPool(total_buffer_packets)
        per_port_cap = None
    elif policy == "dt":
        from ..ecn.service_pool import DynamicThresholdPool
        pool = DynamicThresholdPool(total_buffer_packets, dt_alpha)
        per_port_cap = None
    else:
        pool = None
        per_port_cap = total_buffer_packets // 2

    from ..ecn.base import NullMarker

    def output_port(dst_host, name):
        link = Link(sim, link_rate, DEFAULT_LINK_DELAY, dst_host, name=name)
        return Port(sim, link, FifoScheduler(1), NullMarker(),
                    buffer_packets=per_port_cap, name=name, pool=pool)

    n_senders = n_hog_flows + burst_fanin
    network = _dual_port_network(sim, n_senders, output_port, link_rate)
    auditor = _attach_auditor(sim, audit)
    if auditor is not None:
        auditor.attach_network(network)
    receiver_a = n_senders
    receiver_b = n_senders + 1

    hog_handles = []
    if hog_active:
        for sender in range(n_hog_flows):
            # Long-lived, loss-driven flows (no ECN): they fill whatever
            # buffer the policy lets them take.
            hog_handles.append(
                open_flow(network, Flow(src=sender, dst=receiver_a),
                          DctcpConfig(min_rto=2e-3))
            )

    from ..metrics.fct import FctCollector
    collector = FctCollector()
    burst_start = 5e-3
    for sender in range(n_hog_flows, n_senders):
        open_flow(
            network,
            Flow(src=sender, dst=receiver_b, size_bytes=burst_size_bytes,
                 start_time=burst_start),
            DctcpConfig(init_cwnd=16.0, min_rto=2e-3),
            on_complete=collector.on_complete,
        )
    sim.run(until=duration)
    if auditor is not None:
        auditor.verify_fabric()

    port_b = network.switches[0].ports[1]
    hog_bytes = sum(h.receiver.bytes_received for h in hog_handles)
    fcts = collector.fcts()
    from ..metrics.stats import summarize
    return MicroburstResult(
        policy=policy,
        hog_active=hog_active,
        burst_fanin=burst_fanin,
        burst_drops=port_b.drops,
        burst_completed=len(collector),
        burst_fct_p99=summarize(fcts).p99 if fcts else None,
        hog_gbps=hog_bytes * 8 / duration / 1e9,
    )


# ---------------------------------------------------------------------------
# E-TRANSPORT: PMSB is transport-agnostic (window- and rate-based ECN)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransportVictimResult:
    """Victim scenario outcome for one (transport, marker) pair."""

    transport: str
    marker: str
    victim_gbps: float
    others_gbps: float

    @property
    def fair_share_error(self) -> float:
        total = self.victim_gbps + self.others_gbps
        if total == 0:
            return 0.0
        fair = total / 2.0
        return abs(self.victim_gbps - fair) / fair


def transport_agnostic_victim(
    transport: str = "dcqcn",
    marker: str = "pmsb",
    port_threshold: float = 16.0,
    flows_queue2: int = 8,
    link_rate: float = 10e9,
    config: Optional[RunConfig] = None,
) -> TransportVictimResult:
    """The 1:8 victim scenario with a window- or rate-based transport.

    PMSB's marking decision is transport-agnostic: it suppresses the
    victim's marks whether the sender reacts by shrinking a window
    (DCTCP) or by cutting a pacing rate (DCQCN).  ``transport`` is
    "dctcp" or "dcqcn"; ``marker`` is "pmsb" or "per-port".
    """
    from ..core.pmsb import PmsbMarker
    from ..ecn.per_port import PerPortMarker
    from ..transport.dcqcn import open_dcqcn_flow

    config = config or RunConfig()
    duration = config.duration if config.duration is not None else 0.03
    audit = config.audit

    if marker == "pmsb":
        marker_factory = lambda: PmsbMarker(port_threshold)  # noqa: E731
    elif marker == "per-port":
        marker_factory = lambda: PerPortMarker(port_threshold)  # noqa: E731
    else:
        raise ValueError(f"unknown marker {marker!r}")
    if transport not in ("dctcp", "dcqcn"):
        raise ValueError(f"unknown transport {transport!r}")

    sim = Simulator()
    auditor = _attach_auditor(sim, audit)
    network = TopologySpec(preset="single-bottleneck").build(
        sim, lambda: DwrrScheduler(2), marker_factory,
        default_senders=1 + flows_queue2, link_rate=link_rate,
    )
    if auditor is not None:
        auditor.attach_network(network)
    meter = ThroughputMeter(sim, bin_width=1e-3)
    meter.attach_port(network.observed_ports("bottleneck")[0])
    for flow in incast_flows([1, flows_queue2]):
        if transport == "dcqcn":
            open_dcqcn_flow(network, flow)
        else:
            open_flow(network, flow, DctcpConfig())
    sim.run(until=duration)
    if auditor is not None:
        auditor.verify_fabric()
    return TransportVictimResult(
        transport=transport,
        marker=marker,
        victim_gbps=meter.average_bps(0, duration / 3, duration) / 1e9,
        others_gbps=meter.average_bps(1, duration / 3, duration) / 1e9,
    )


# ---------------------------------------------------------------------------
# E-INCAST: incast fan-in sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IncastRow:
    """Outcome of one synchronized incast degree under one scheme."""

    scheme: str
    fanin: int
    drops: int
    completed: int
    fct_p99: Optional[float]
    retransmission_timeouts: int

    def to_payload(self) -> "dict":
        """A JSON-able dict for run-store persistence."""
        return asdict(self)

    @classmethod
    def from_payload(cls, data: "Mapping[str, Any]") -> "IncastRow":
        return cls(**data)


def incast_point_spec(
    scheme_name: str,
    fanin: int,
    response_bytes: int,
    buffer_packets: int,
    link_rate: float,
    duration: float,
    audit: bool = False,
) -> ExperimentSpec:
    """Content address of one incast fan-in point (store cache key)."""
    return ExperimentSpec.create(
        "incast-sweep", scheme=scheme_name, scheduler="dwrr",
        audit=audit,
        params={"fanin": fanin, "response_bytes": response_bytes,
                "buffer_packets": buffer_packets, "link_rate": link_rate,
                "duration": duration},
    )


def incast_sweep(
    scheme_name: str = "pmsb",
    fanins: "Sequence[int]" = (8, 16, 32, 64),
    response_bytes: int = 20_000,
    buffer_packets: int = 128,
    link_rate: float = 10e9,
    config: Optional[RunConfig] = None,
    store: Optional[Union[RunStore, str]] = None,
) -> "List[IncastRow]":
    """The classic partition/aggregate incast microbenchmark.

    ``fanin`` workers answer an aggregator simultaneously with
    ``response_bytes`` each through one moderately buffered port.  ECN
    cannot prevent the synchronized initial burst, but the scheme
    determines how fast senders back off afterwards and therefore how
    the tail FCT scales with fan-in.

    With ``store`` (or ``config.cache_dir``) each fan-in point is cached
    under its :func:`incast_point_spec` content address, with the same
    skip-completed / ``config.force`` semantics as the FCT sweep
    (:func:`~repro.store.sweep.cached_sweep`).
    """
    config = config or RunConfig()
    duration = config.duration if config.duration is not None else 0.1
    # A point is incast_point_spec's arguments, in order.
    points = [(scheme_name, fanin, response_bytes, buffer_packets,
               link_rate, duration, bool(config.audit))
              for fanin in fanins]
    return cached_sweep(
        points, [incast_point_spec(*point) for point in points],
        f"{__name__}:_incast_point", IncastRow.from_payload,
        # `is None`, not `or`: an empty RunStore is falsy.
        open_store(config.cache_dir if store is None else store),
        config.force or not config.resume, config.jobs)


def _incast_point(point, provenance: "Dict[str, Any]") -> IncastRow:
    """Simulate one fan-in degree (the ``compute`` of
    :func:`~repro.store.sweep.cached_sweep`)."""
    from ..metrics.fct import FctCollector
    from ..metrics.stats import summarize
    from .scenario import make_scheme

    (scheme_name, fanin, response_bytes, buffer_packets, link_rate,
     duration, audit) = point
    scheme = make_scheme(scheme_name, link_rate=link_rate, n_queues=2)
    sim = Simulator()
    auditor = _attach_auditor(sim, audit)
    network = TopologySpec(preset="single-bottleneck").build(
        sim, lambda: DwrrScheduler(2), scheme.marker_factory,
        default_senders=fanin, link_rate=link_rate,
        buffer_packets=buffer_packets,
    )
    if auditor is not None:
        auditor.attach_network(network)
    collector = FctCollector()
    handles = []
    for sender in range(fanin):
        handles.append(open_flow(
            network,
            Flow(src=sender, dst=fanin, size_bytes=response_bytes,
                 service=sender % 2),
            scheme.transport_config(init_cwnd=16.0, min_rto=2e-3),
            on_complete=collector.on_complete,
        ))
    sim.run(until=duration)
    if auditor is not None:
        auditor.verify_fabric()
    provenance["engine"] = {"events_processed": sim.events_processed}
    fcts = collector.fcts()
    return IncastRow(
        scheme=scheme.name,
        fanin=fanin,
        drops=network.observed_ports("bottleneck")[0].drops,
        completed=len(collector),
        fct_p99=summarize(fcts).p99 if fcts else None,
        retransmission_timeouts=sum(h.sender.timeouts for h in handles),
    )
