#!/usr/bin/env python3
"""Quickstart: the victim-flow problem and how PMSB fixes it.

Builds the paper's motivating scenario twice — 1 flow vs 8 flows through
two equal-weight DWRR queues of one 10 Gbps port — first with plain
per-port ECN marking (Fig. 3: the lone flow is starved), then with PMSB
(Fig. 8-style: the 50/50 split holds).

Run:  python examples/quickstart.py
"""

from repro import (DwrrScheduler, Flow, PerPortMarker, PmsbMarker, Simulator,
                   ThroughputMeter, TopologySpec, open_flow)

LINK_RATE = 10e9
DURATION = 0.03
N_QUEUE2_FLOWS = 8
PORT_THRESHOLD = 16  # packets


def run_scenario(marker_factory, label):
    sim = Simulator()
    network = TopologySpec(
        "single-bottleneck", senders=1 + N_QUEUE2_FLOWS).build(
        sim, scheduler_factory=lambda: DwrrScheduler(2),
        marker_factory=marker_factory, link_rate=LINK_RATE)
    meter = ThroughputMeter(sim, bin_width=1e-3)
    meter.attach_port(network.observed_ports("bottleneck")[0])

    receiver = network.hosts[-1].host_id
    # Sender 0 alone in queue 0; senders 1..8 share queue 1.
    for sender in range(1 + N_QUEUE2_FLOWS):
        service = 0 if sender == 0 else 1
        open_flow(network, Flow(src=sender, dst=receiver, service=service))

    sim.run(until=DURATION)

    q0 = meter.average_bps(0, DURATION / 3, DURATION) / 1e9
    q1 = meter.average_bps(1, DURATION / 3, DURATION) / 1e9
    marker = network.observed_ports("bottleneck")[0].marker
    print(f"\n{label}")
    print(f"  queue 1 (1 flow):  {q0:5.2f} Gbps")
    print(f"  queue 2 (8 flows): {q1:5.2f} Gbps")
    print(f"  packets marked:    {marker.packets_marked}"
          f" ({100 * marker.mark_fraction:.1f}% of ECT packets)")
    if hasattr(marker, "victims_protected"):
        print(f"  victims protected: {marker.victims_protected}")
    return q0, q1


def main():
    print("The multi-queue ECN victim-flow problem (paper Figs. 3 vs 8)")
    print(f"1 flow vs {N_QUEUE2_FLOWS} flows, two equal DWRR queues, "
          f"port threshold {PORT_THRESHOLD} packets")

    pp_q0, _ = run_scenario(lambda: PerPortMarker(PORT_THRESHOLD),
                            "Per-port ECN marking (current practice):")
    pmsb_q0, pmsb_q1 = run_scenario(lambda: PmsbMarker(PORT_THRESHOLD),
                                    "PMSB (per-port marking with "
                                    "selective blindness):")

    print("\nSummary: the lone flow got "
          f"{pp_q0:.2f} Gbps under per-port marking but "
          f"{pmsb_q0:.2f} Gbps under PMSB "
          f"(fair share is {(pmsb_q0 + pmsb_q1) / 2:.2f} Gbps).")


if __name__ == "__main__":
    main()
