"""PMSB: per-Port ECN Marking with Selective Blindness.

A packet-level reproduction of "Support ECN in Multi-Queue Datacenter
Networks via per-Port Marking with Selective Blindness" (ICDCS 2018),
including the complete simulation substrate it runs on: a discrete-event
network simulator, multi-queue schedulers, all baseline ECN marking
schemes (per-queue, per-port, service-pool, MQ-ECN, TCN), a DCTCP
transport, datacenter workloads, and the paper's experiment harness.

Quickstart::

    from repro import (Simulator, TopologySpec, PmsbMarker,
                       DwrrScheduler, Flow, open_flow)

    sim = Simulator()
    net = TopologySpec.parse("single-bottleneck:senders=9").build(
        sim,
        scheduler_factory=lambda: DwrrScheduler(2),
        marker_factory=lambda: PmsbMarker(port_threshold_packets=16),
    )
    handles = [open_flow(net, Flow(src=i, dst=9, service=0 if i == 0 else 1))
               for i in range(9)]
    sim.run(until=0.1)

Any folded-Clos fabric is one spec away — e.g.
``TopologySpec.parse("clos:tiers=3,ports=16")`` builds a 1024-host
fat-tree with derived ECMP routes.
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .core import (
        AcceptAllFilter,
        CAPABILITIES,
        EcnFilter,
        PmsbMarker,
        RttEcnFilter,
        SchemeCapabilities,
        SteadyStateModel,
        bdp_packets,
        capability_table,
        port_threshold_lower_bound,
        queue_threshold_lower_bound,
    )
    from .ecn import (
        MarkPoint,
        Marker,
        MqEcnMarker,
        NullMarker,
        PerPortMarker,
        PerQueueMarker,
        RedMarker,
        ServicePoolMarker,
        TcnMarker,
        fractional_thresholds,
        standard_thresholds,
    )
    from .metrics import (
        FctCollector,
        QueueOccupancyTrace,
        SizeClass,
        SummaryStats,
        ThroughputMeter,
        summarize,
    )
    from .net import (
        ClosGenerator,
        Host,
        Link,
        MTU_BYTES,
        Network,
        Packet,
        Port,
        Switch,
        TopologySpec,
    )
    from .scheduling import (
        DwrrScheduler,
        FifoScheduler,
        Scheduler,
        SpWfqScheduler,
        StrictPriorityScheduler,
        WfqScheduler,
        WrrScheduler,
    )
    from .sim import FabricAuditor, InvariantViolation, Simulator, make_rng
    from .store import ExperimentSpec, RunConfig, RunRecord, RunStore
    from .transport import (
        ClassicEcnSender,
        DctcpConfig,
        DctcpReceiver,
        DctcpSender,
        Flow,
        FlowHandle,
        open_flow,
        open_flows,
    )
    from .workloads import PAPER_MIX, PoissonFlowGenerator, WEB_SEARCH

_EXPORTS = {
    ".core": (
        "AcceptAllFilter", "CAPABILITIES", "EcnFilter", "PmsbMarker",
        "RttEcnFilter", "SchemeCapabilities", "SteadyStateModel",
        "bdp_packets", "capability_table", "port_threshold_lower_bound",
        "queue_threshold_lower_bound",
    ),
    ".ecn": (
        "MarkPoint", "Marker", "MqEcnMarker", "NullMarker",
        "PerPortMarker", "PerQueueMarker", "RedMarker",
        "ServicePoolMarker", "TcnMarker", "fractional_thresholds",
        "standard_thresholds",
    ),
    ".metrics": (
        "FctCollector", "QueueOccupancyTrace", "SizeClass",
        "SummaryStats", "ThroughputMeter", "summarize",
    ),
    ".net": (
        "ClosGenerator", "Host", "Link", "MTU_BYTES", "Network",
        "Packet", "Port", "Switch", "TopologySpec",
    ),
    ".scheduling": (
        "DwrrScheduler", "FifoScheduler", "Scheduler", "SpWfqScheduler",
        "StrictPriorityScheduler", "WfqScheduler", "WrrScheduler",
    ),
    ".sim": (
        "FabricAuditor", "InvariantViolation", "Simulator", "make_rng",
    ),
    ".store": ("ExperimentSpec", "RunConfig", "RunRecord", "RunStore"),
    ".transport": (
        "ClassicEcnSender", "DctcpConfig", "DctcpReceiver",
        "DctcpSender", "Flow", "FlowHandle", "open_flow", "open_flows",
    ),
    ".workloads": ("PAPER_MIX", "PoissonFlowGenerator", "WEB_SEARCH"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

__version__ = "1.0.0"
