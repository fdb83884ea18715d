#!/usr/bin/env python3
"""Every transport in the library over the same PMSB bottleneck.

Five ECN-era datacenter transports share nothing but the fabric: DCTCP
(windowed, proportional back-off), classic ECN TCP (windowed, halving),
D2TCP (deadline-aware DCTCP), DCQCN (rate-based, CNP-driven), and TIMELY
(rate-based, RTT-gradient, ignores ECN entirely).  Each runs a 4-flow
incast through a PMSB-marked port; the table shows how differently the
same marking signal is consumed.

Run:  python examples/transport_zoo.py
"""

import numpy as np

from repro import (DctcpConfig, DwrrScheduler, Flow, PmsbMarker, Simulator,
                   ThroughputMeter, TopologySpec)
from repro.transport.classic_ecn import ClassicEcnSender
from repro.transport.d2tcp import D2tcpSender
from repro.transport.dcqcn import open_dcqcn_flow
from repro.transport.dctcp import DctcpSender
from repro.transport.endpoints import open_flow
from repro.transport.timely import TimelySender

LINK_RATE = 10e9
N_FLOWS = 4
DURATION = 0.04


def build():
    sim = Simulator()
    network = TopologySpec("single-bottleneck", senders=N_FLOWS).build(
        sim, scheduler_factory=lambda: DwrrScheduler(2),
        marker_factory=lambda: PmsbMarker(port_threshold_packets=16),
        link_rate=LINK_RATE)
    meter = ThroughputMeter(sim, bin_width=1e-3)
    network.observed_ports("bottleneck")[0].observe(meter)
    return sim, network, meter


def measure(sim, network, meter, rtt_sources):
    sim.run(until=DURATION)
    total = sum(
        meter.average_bps(q, DURATION / 2, DURATION)
        for q in range(network.observed_ports("bottleneck")[0].n_queues)
    ) / 1e9
    samples = []
    for source in rtt_sources:
        values = getattr(source, "rtt_samples", None)
        if values:
            samples.extend(values[len(values) // 2:])
    rtt_p99 = np.percentile(samples, 99) * 1e6 if samples else float("nan")
    marked = network.observed_ports("bottleneck")[0].marker.packets_marked
    return total, rtt_p99, marked


def run_windowed(sender_class):
    sim, network, meter = build()
    handles = [
        open_flow(network, Flow(src=i, dst=N_FLOWS, service=i % 2,
                                deadline=10e-3),
                  DctcpConfig(record_rtt=True), sender_class=sender_class)
        for i in range(N_FLOWS)
    ]
    return measure(sim, network, meter, [h.sender for h in handles])


def run_dcqcn():
    sim, network, meter = build()
    for i in range(N_FLOWS):
        open_dcqcn_flow(network, Flow(src=i, dst=N_FLOWS, service=i % 2))
    return measure(sim, network, meter, [])


def main():
    print(f"{N_FLOWS}-flow incast, PMSB port threshold 16, "
          f"{DURATION * 1e3:.0f} ms simulated per transport\n")
    print(f"{'transport':14s} {'signal':22s} {'total':>7s} "
          f"{'RTT p99':>9s} {'CE marks':>9s}")
    zoo = [
        ("DCTCP", "ECN ratio (window)", lambda: run_windowed(DctcpSender)),
        ("classic ECN", "ECN halving (window)",
         lambda: run_windowed(ClassicEcnSender)),
        ("D2TCP", "ECN + deadlines", lambda: run_windowed(D2tcpSender)),
        ("DCQCN", "CNPs (pacing rate)", run_dcqcn),
        ("TIMELY", "RTT gradient (no ECN)",
         lambda: run_windowed(TimelySender)),
    ]
    for name, signal, runner in zoo:
        total, rtt_p99, marked = runner()
        rtt = f"{rtt_p99:7.0f}us" if rtt_p99 == rtt_p99 else "     n/a"
        print(f"{name:14s} {signal:22s} {total:6.2f}G {rtt} {marked:9d}")

    print("\nAll five fill the link; they differ in how much standing")
    print("queue (RTT) they tolerate and how many marks they generate —")
    print("PMSB's marking layer serves every one of them unchanged.")


if __name__ == "__main__":
    main()
