#!/usr/bin/env python3
"""Incremental PMSB(e) deployment — one host at a time.

The deployability story of §V: PMSB(e) needs no switch change, so an
operator can upgrade senders gradually.  This example runs the 1-vs-8
victim scenario three ways — nobody upgraded, only the victim upgraded,
everyone upgraded — and shows that a single-host upgrade already
reclaims the victim's fair share while coexisting with stock DCTCP
peers.

Run:  python examples/incremental_deployment.py
"""

from repro import (DctcpConfig, DwrrScheduler, Flow, PerPortMarker,
                   RttEcnFilter, Simulator, ThroughputMeter, TopologySpec,
                   open_flow)

LINK_RATE = 10e9
DURATION = 0.03
PORT_THRESHOLD = 16
RTT_THRESHOLD = 40e-6
N_OTHERS = 8


def run(upgraded_senders):
    sim = Simulator()
    network = TopologySpec("single-bottleneck", senders=1 + N_OTHERS).build(
        sim, scheduler_factory=lambda: DwrrScheduler(2),
        marker_factory=lambda: PerPortMarker(PORT_THRESHOLD),
        link_rate=LINK_RATE)
    meter = ThroughputMeter(sim, bin_width=1e-3)
    meter.attach_port(network.observed_ports("bottleneck")[0])

    receiver = network.hosts[-1].host_id
    handles = []
    for sender in range(1 + N_OTHERS):
        if sender in upgraded_senders:
            config = DctcpConfig(
                ecn_filter_factory=lambda: RttEcnFilter(RTT_THRESHOLD))
        else:
            config = DctcpConfig()
        service = 0 if sender == 0 else 1
        handles.append(open_flow(
            network, Flow(src=sender, dst=receiver, service=service), config))
    sim.run(until=DURATION)

    q0 = meter.average_bps(0, DURATION / 3, DURATION) / 1e9
    q1 = meter.average_bps(1, DURATION / 3, DURATION) / 1e9
    filtered = sum(getattr(h.sender.ecn_filter, "marks_ignored", 0)
                   for h in handles)
    return q0, q1, filtered


def main():
    print("Per-port-marking switch, 1 flow (queue 1) vs 8 flows (queue 2).")
    print("Who runs the PMSB(e) RTT filter changes who gets what:\n")
    print(f"{'deployment':32s} {'victim':>8s} {'others':>8s} "
          f"{'marks ignored':>14s}")
    scenarios = [
        ("nobody (stock DCTCP everywhere)", set()),
        ("victim only", {0}),
        ("everyone", set(range(1 + N_OTHERS))),
    ]
    for label, upgraded in scenarios:
        q0, q1, filtered = run(upgraded)
        print(f"{label:32s} {q0:7.2f}G {q1:7.2f}G {filtered:14d}")

    print("\nUpgrading just the victim restores its 5 Gbps share; a full")
    print("rollout behaves the same — PMSB(e) coexists with stock DCTCP.")


if __name__ == "__main__":
    main()
