#!/usr/bin/env python3
"""A multi-service datacenter fabric under realistic load.

The scenario the paper's introduction motivates: operators isolate 8
services into 8 switch queues for QoS, and need ECN that respects that
isolation.  This example builds a leaf-spine fabric, drives it with a
Poisson arrival of realistically-sized flows (60% small / 10% large),
and prints per-size-class and per-service FCT statistics under PMSB.

Run:  python examples/multi_service_fabric.py [load]
"""

import sys
from collections import defaultdict

from repro import (DctcpConfig, DwrrScheduler, FctCollector, PAPER_MIX,
                   PmsbMarker, PoissonFlowGenerator, Simulator,
                   TopologySpec, make_rng, open_flow, summarize)

LINK_RATE = 10e9
N_SERVICES = 8
N_FLOWS = 150
SIZE_SCALE = 0.1  # shrink the workload so the example runs in seconds


def main():
    load = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
    print(f"Leaf-spine fabric (2x2, 8 hosts), {N_SERVICES} services, "
          f"load {load:.1f}, PMSB marking")

    sim = Simulator()
    network = TopologySpec(
        "leaf-spine", n_leaf=2, n_spine=2, hosts_per_leaf=4).build(
        sim, scheduler_factory=lambda: DwrrScheduler(N_SERVICES),
        marker_factory=lambda: PmsbMarker(port_threshold_packets=12),
        link_rate=LINK_RATE)

    rng = make_rng(42)
    generator = PoissonFlowGenerator(
        rng, [h.host_id for h in network.hosts],
        PAPER_MIX.scaled(SIZE_SCALE), load=load, link_rate_bps=LINK_RATE,
        n_services=N_SERVICES,
    )
    flows = generator.generate(n_flows=N_FLOWS)

    collector = FctCollector(size_scale=SIZE_SCALE)
    for flow in flows:
        open_flow(network, flow, DctcpConfig(init_cwnd=16.0),
                  on_complete=collector.on_complete)

    deadline = flows[-1].start_time + 2.0
    while len(collector) < len(flows) and sim.now < deadline:
        sim.run(until=sim.now + 0.01)

    print(f"\n{len(collector)}/{len(flows)} flows completed "
          f"({sim.events_processed} events simulated)")

    print("\nFCT by size class:")
    for size_class, stats in collector.summary_by_class().items():
        if stats is None:
            continue
        print(f"  {size_class.value:7s} n={stats.count:4d} "
              f"avg={stats.mean * 1e3:7.3f} ms  "
              f"p95={stats.p95 * 1e3:7.3f} ms  "
              f"p99={stats.p99 * 1e3:7.3f} ms")

    by_service = defaultdict(list)
    for record in collector.records:
        by_service[record.service].append(record.fct)
    print("\nFCT by service (queue):")
    for service in sorted(by_service):
        stats = summarize(by_service[service])
        print(f"  service {service}: n={stats.count:3d} "
              f"avg={stats.mean * 1e3:7.3f} ms  "
              f"p99={stats.p99 * 1e3:7.3f} ms")

    marked = sum(p.marker.packets_marked for p in network.all_marked_ports())
    drops = sum(p.drops for s in network.switches for p in s.ports)
    print(f"\nfabric totals: {marked} packets CE-marked, {drops} drops")


if __name__ == "__main__":
    main()
