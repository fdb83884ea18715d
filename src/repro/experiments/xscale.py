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

The store-backed sweep, the :data:`~repro.experiments.families.XSCALE`
row, walks ``SCALE_LADDER`` (48 -> 1024 hosts, two- and three-tier
Clos at several oversubscription ratios) for each scheme; points key
on the topology's canonical params.  A row holds simulated results
only, so two runs of the same point print the same bytes
(generator cost is measured by perfbench's ``fct_fattree1024``
``setup_s``).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..net.sharedbuf import SharedBufferSpec
from ..net.topology import TopologySpec, as_topology
from ..sim.audit import FabricAuditor
from ..sim.engine import Simulator
from ..transport.endpoints import open_flow
from ..transport.flow import Flow
from ..metrics.throughput import ThroughputMeter, fair_share_error
from .families import SCALE_LADDER, XScaleRow, spec_text
from .scenario import Scenario, make_scheme, run_scenario, scheduler_factory

__all__ = ["xscale_scenario", "xscale_sweep_point"]


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
    scheme_name: str,
    topology: Union[str, TopologySpec],
    scheduler_name: str = "dwrr",
    hogs: int = 8,
    link_rate: float = 10e9,
    seed: int = 1,
    duration: float = 0.02,
    audit: bool = False,
    shared_buffer: Optional[SharedBufferSpec] = None,
) -> Scenario:
    """Build one scale point; it finalizes to its :class:`XScaleRow`.

    Builds ``topology``, opens 1 victim (service 0) and ``hogs`` hog
    flows (service 1) toward one receiver, and reports per-queue
    goodput on the receiver's downlink after a third of the run has
    warmed the fabric up.  A rung ``SCALE_LADDER`` pins must build its
    pinned host count.
    """
    topo = as_topology(topology)
    if topo is None or topo.preset == "single-bottleneck":
        raise ValueError("xscale needs a multi-host fabric spec "
                         "(leaf-spine / fat-tree / clos)")
    scheme = make_scheme(scheme_name, link_rate=link_rate, n_queues=2)
    sim = Simulator()
    auditor = FabricAuditor(sim) if audit else None
    network = topo.build(sim, scheduler_factory(scheduler_name, 2),
                         scheme.marker_factory, shared_buffer=shared_buffer,
                         link_rate=link_rate)
    pinned = {spec_text(as_topology(text)): hosts
              for text, hosts in SCALE_LADDER}.get(spec_text(topo))
    if pinned is not None and len(network.hosts) != pinned:
        raise RuntimeError(
            f"{spec_text(topo)} built {len(network.hosts)} hosts, ladder "
            f"pins {pinned} — generator shape regression")
    if auditor is not None:
        auditor.attach_network(network)

    host_ids = [host.host_id for host in network.hosts]
    receiver, victim, sources = _pick_endpoints(host_ids, hogs, seed)
    downlink = network.host_facing_port(receiver)
    if downlink is None:
        raise ValueError(f"fabric has no host-facing port for receiver "
                         f"{receiver}")
    meter = ThroughputMeter(sim, bin_width=1e-3)
    downlink.observe(meter)

    # Explicit flow ids (ECMP hashes on them): Flow's default draws from
    # a process-global counter, which would tie a row to whatever ran
    # earlier in the process.
    flows = [Flow(src=victim, dst=receiver, service=0, flow_id=1)]
    flows += [Flow(src=src, dst=receiver, service=1, flow_id=2 + index)
              for index, src in enumerate(sources)]
    for flow in flows:
        open_flow(network, flow, scheme.transport_config(init_cwnd=4.0))
    warmup = duration / 3.0

    def finalize() -> XScaleRow:
        if auditor is not None:
            auditor.verify_fabric()
        victim_gbps = meter.average_bps(0, warmup, duration) / 1e9
        hogs_gbps = meter.average_bps(1, warmup, duration) / 1e9
        return XScaleRow(
            scheme=scheme.name, scheduler=scheduler_name,
            topology=spec_text(topo),
            n_hosts=len(network.hosts), n_switches=len(network.switches),
            hogs=hogs, seed=seed,
            victim_gbps=victim_gbps, hogs_gbps=hogs_gbps,
            victim_err=fair_share_error(victim_gbps, hogs_gbps),
            drops=downlink.drops)

    return Scenario(sim=sim, deadline=duration, finalize=finalize)


def xscale_sweep_point(point: Mapping[str, Any],
                       provenance: Dict[str, Any]) -> XScaleRow:
    """The ``XSCALE`` row's point function: simulate one missed point."""
    profile = point["profile"]
    return run_scenario(
        partial(xscale_scenario, point["scheme_name"], point["topology"],
                scheduler_name=point["scheduler_name"], hogs=point["hogs"],
                link_rate=profile.link_rate, seed=point["seed"],
                duration=profile.static_duration, audit=point["audit"],
                shared_buffer=point["shared_buffer"]),
        provenance)
