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

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..core.pmsb_endhost import RttEcnFilter
from ..ecn.service_pool import ServicePoolMarker
from ..metrics.throughput import ThroughputMeter, fair_share_error
from ..net.host import Host
from ..net.link import Link
from ..net.port import Port
from ..net.sharedbuf import SharedBuffer, SharedBufferSpec
from ..net.switch import Switch
from ..net.topology import DEFAULT_LINK_DELAY, Network, TopologySpec
from ..scheduling.dwrr import DwrrScheduler
from ..scheduling.fifo import FifoScheduler
from ..sim.audit import FabricAuditor
from ..sim.engine import Simulator
from ..store.spec import RunConfig
from ..transport.base import DctcpConfig
from ..transport.endpoints import open_flow
from ..transport.flow import Flow
from .families import IncastRow
from .scenario import (Scenario, SchemeSpec, incast_flows, make_scheme,
                       run_scenario)

__all__ = ["PoolVictimResult", "service_pool_victim",
           "CoexistenceResult", "pmsbe_coexistence",
           "MicroburstResult", "microburst_absorption",
           "BUFFER_POLICIES",
           "TransportVictimResult", "transport_agnostic_victim",
           "incast_fanin_scenario", "incast_sweep_point"]


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


def _victim_incast(scheme: SchemeSpec, open_one: Callable[[Network, Flow], Any],
                   flows_queue2: int, link_rate: float,
                   config: Optional[RunConfig]) -> Tuple[List[Any], float, float]:
    """The Fig. 3 layout on one DWRR bottleneck marked by ``scheme``'s
    marker: one queue-0 victim and ``flows_queue2`` queue-1 flows, each
    opened by ``open_one(network, flow)``, for ``config.duration``
    (default 0.03 s).  Returns the handles and the two queues'
    post-warmup Gbps, the victim's first."""
    config = config or RunConfig()
    duration = config.duration if config.duration is not None else 0.03
    sim = Simulator()
    auditor = FabricAuditor(sim) if config.audit else None
    network = TopologySpec(preset="single-bottleneck").build(
        sim, lambda: DwrrScheduler(2), scheme.marker_factory,
        default_senders=1 + flows_queue2, link_rate=link_rate,
    )
    if auditor is not None:
        auditor.attach_network(network)
    meter = ThroughputMeter(sim, bin_width=1e-3)
    network.observed_ports("bottleneck")[0].observe(meter)
    handles = [open_one(network, flow)
               for flow in incast_flows([1, flows_queue2])]
    sim.run(until=duration)
    if auditor is not None:
        auditor.verify_fabric()
    return (handles, meter.average_bps(0, duration / 3, duration) / 1e9,
            meter.average_bps(1, duration / 3, duration) / 1e9)


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
    auditor = FabricAuditor(sim) if audit else None
    # Complete sharing over the two members' 1000-packet buffers: the
    # capacity never binds, only the pool-level marking threshold acts.
    pool = SharedBuffer(2000, name="service-pool")

    def member_port(dst_host, name):
        link = Link(sim, link_rate, DEFAULT_LINK_DELAY, dst_host, name=name)
        marker = ServicePoolMarker(pool, pool_threshold)
        return Port(sim, link, FifoScheduler(1), marker,
                    buffer_packets=1000, name=name,
                    pool=pool.port_account(name, link))

    n_senders = 1 + flows_port_b
    network = _dual_port_network(sim, n_senders, member_port, link_rate)
    if auditor is not None:
        auditor.attach_network(network)
    receiver_a = n_senders
    receiver_b = n_senders + 1
    handles = [open_flow(network, Flow(src=0, dst=receiver_a, flow_id=1))]
    for sender in range(1, n_senders):
        handles.append(open_flow(network, Flow(src=sender, dst=receiver_b,
                                               flow_id=sender + 1)))
    sim.run(until=duration)
    if auditor is not None:
        auditor.verify_fabric()

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
        return fair_share_error(self.victim_gbps, self.others_gbps)


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
    def open_one(network: Network, flow: Flow):
        if flow.service == 0 and victim_upgraded:
            return open_flow(network, flow, DctcpConfig(
                ecn_filter_factory=lambda: RttEcnFilter(rtt_threshold)))
        return open_flow(network, flow, DctcpConfig())

    handles, victim_gbps, others_gbps = _victim_incast(
        make_scheme("per-port", port_threshold_packets=port_threshold),
        open_one, flows_queue2, link_rate, config)
    return CoexistenceResult(
        victim_gbps=victim_gbps, others_gbps=others_gbps,
        victim_filtered_marks=getattr(handles[0].sender.ecn_filter,
                                      "marks_ignored", 0),
    )


# ---------------------------------------------------------------------------
# E-BURST: micro-burst absorption under shared-buffer policies
# ---------------------------------------------------------------------------

BUFFER_POLICIES = ("static", "shared", "dt")
#: Each policy's :data:`~repro.net.sharedbuf.SHARING_POLICIES` name.
_SHARING_POLICY = {"static": "static", "shared": "complete", "dt": "dt"}


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

    The switch's two output ports share a
    :class:`~repro.net.sharedbuf.SharedBuffer` of
    ``total_buffer_packets`` under one of three policies (the design
    space behind the paper's micro-burst references [13]/[14]):

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
    shared = SharedBufferSpec(_SHARING_POLICY[policy], total_buffer_packets,
                              dt_alpha).build()

    from ..ecn.base import NullMarker

    def output_port(dst_host, name):
        link = Link(sim, link_rate, DEFAULT_LINK_DELAY, dst_host, name=name)
        return Port(sim, link, FifoScheduler(1), NullMarker(), name=name,
                    pool=shared.port_account(name, link))

    n_senders = n_hog_flows + burst_fanin
    network = _dual_port_network(sim, n_senders, output_port, link_rate)
    auditor = FabricAuditor(sim) if audit else None
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
                open_flow(network, Flow(src=sender, dst=receiver_a,
                                        flow_id=sender + 1),
                          DctcpConfig(min_rto=2e-3))
            )

    from ..metrics.fct import FctCollector
    collector = FctCollector()
    burst_start = 5e-3
    for sender in range(n_hog_flows, n_senders):
        open_flow(
            network,
            Flow(src=sender, dst=receiver_b, size_bytes=burst_size_bytes,
                 start_time=burst_start, flow_id=sender + 1),
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
        return fair_share_error(self.victim_gbps, self.others_gbps)


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
    from ..transport.dcqcn import open_dcqcn_flow

    if marker not in ("pmsb", "per-port"):
        raise ValueError(f"unknown marker {marker!r}")
    if transport not in ("dctcp", "dcqcn"):
        raise ValueError(f"unknown transport {transport!r}")
    _, victim_gbps, others_gbps = _victim_incast(
        make_scheme(marker, port_threshold_packets=port_threshold),
        open_dcqcn_flow if transport == "dcqcn"
        else lambda network, flow: open_flow(network, flow, DctcpConfig()),
        flows_queue2, link_rate, config)
    return TransportVictimResult(transport=transport, marker=marker,
                                 victim_gbps=victim_gbps,
                                 others_gbps=others_gbps)


# ---------------------------------------------------------------------------
# E-INCAST: incast fan-in sweep
# ---------------------------------------------------------------------------

def incast_fanin_scenario(
    scheme_name: str,
    fanin: int,
    response_bytes: int,
    buffer_packets: int,
    link_rate: float,
    duration: float,
    audit: bool = False,
) -> Scenario:
    """The classic partition/aggregate incast microbenchmark.

    ``fanin`` workers answer an aggregator simultaneously with
    ``response_bytes`` each through one moderately buffered port.  ECN
    cannot prevent the synchronized initial burst, but the scheme
    determines how fast senders back off afterwards and therefore how
    the tail FCT scales with fan-in.  The scenario finalizes to its
    :class:`IncastRow`.
    """
    from ..metrics.fct import FctCollector
    from ..metrics.stats import summarize

    scheme = make_scheme(scheme_name, link_rate=link_rate, n_queues=2)
    sim = Simulator()
    auditor = FabricAuditor(sim) if audit else None
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
                 service=sender % 2, flow_id=sender + 1),
            scheme.transport_config(init_cwnd=16.0, min_rto=2e-3),
            on_complete=collector.on_complete,
        ))

    def finalize() -> IncastRow:
        if auditor is not None:
            auditor.verify_fabric()
        fcts = collector.fcts()
        return IncastRow(
            scheme=scheme.name,
            fanin=fanin,
            drops=network.observed_ports("bottleneck")[0].drops,
            completed=len(collector),
            fct_p99=summarize(fcts).p99 if fcts else None,
            retransmission_timeouts=sum(h.sender.timeouts for h in handles),
        )

    return Scenario(sim=sim, deadline=duration, finalize=finalize)


def incast_sweep_point(point: Mapping[str, Any],
                       provenance: Dict[str, Any]) -> IncastRow:
    """The ``INCAST`` row's point function: simulate one missed point."""
    return run_scenario(
        partial(incast_fanin_scenario, point["scheme_name"], point["fanin"],
                point["response_bytes"], point["buffer_packets"],
                point["link_rate"], point["duration"], point["audit"]),
        provenance)
