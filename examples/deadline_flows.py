#!/usr/bin/env python3
"""Deadline-aware transport over a PMSB fabric.

D2TCP (one of the ECN-based transports the paper's introduction cites)
gamma-corrects DCTCP's back-off by deadline imminence.  This example
runs a batch of deadline-carrying flows through a PMSB-marked bottleneck
twice — once with plain DCTCP, once with D2TCP — and compares deadline
miss rates.  The marking substrate is identical; only the sender's
response changes, demonstrating how PMSB composes with any ECN-based
transport.

Run:  python examples/deadline_flows.py
"""

from repro import (DctcpConfig, DwrrScheduler, Flow, PmsbMarker, Simulator,
                   TopologySpec, open_flow)
from repro.metrics.fct import FctCollector
from repro.transport.d2tcp import D2tcpSender
from repro.transport.dctcp import DctcpSender

LINK_RATE = 10e9
N_TIGHT = 6           # flows with a hard 5 ms deadline
N_LOOSE = 6           # flows with a relaxed 100 ms deadline
FLOW_BYTES = 600_000
TIGHT_DEADLINE = 5.0e-3
LOOSE_DEADLINE = 100e-3


def run(sender_class, label):
    n_flows = N_TIGHT + N_LOOSE
    sim = Simulator()
    network = TopologySpec("single-bottleneck", senders=n_flows).build(
        sim, scheduler_factory=lambda: DwrrScheduler(2),
        marker_factory=lambda: PmsbMarker(port_threshold_packets=65),
        link_rate=LINK_RATE)
    collector = FctCollector()
    tight_ids = set()
    for sender in range(n_flows):
        tight = sender < N_TIGHT
        flow = Flow(src=sender, dst=n_flows, size_bytes=FLOW_BYTES,
                    service=sender % 2,
                    deadline=TIGHT_DEADLINE if tight else LOOSE_DEADLINE,
                    start_time=sender * 10e-6)
        if tight:
            tight_ids.add(flow.flow_id)
        open_flow(network, flow, DctcpConfig(init_cwnd=16.0),
                  on_complete=collector.on_complete,
                  sender_class=sender_class)
    sim.run(until=0.3)

    tight_records = [r for r in collector.records if r.flow_id in tight_ids]
    met = sum(1 for r in tight_records if r.fct <= TIGHT_DEADLINE)
    loose_records = [r for r in collector.records
                     if r.flow_id not in tight_ids]
    loose_met = sum(1 for r in loose_records if r.fct <= LOOSE_DEADLINE)
    print(f"\n{label}")
    print(f"  completed:            {len(collector)}/{n_flows}")
    print(f"  tight deadlines met:  {met}/{N_TIGHT} "
          f"({TIGHT_DEADLINE * 1e3:.0f} ms budget)")
    print(f"  loose deadlines met:  {loose_met}/{N_LOOSE} "
          f"({LOOSE_DEADLINE * 1e3:.0f} ms budget)")
    if tight_records:
        worst = max(r.fct for r in tight_records)
        print(f"  worst tight-flow FCT: {worst * 1e3:.2f} ms")
    return met


def main():
    print(f"{N_TIGHT} tight-deadline + {N_LOOSE} loose-deadline flows "
          f"({FLOW_BYTES // 1000} KB each), shared PMSB bottleneck")
    dctcp_met = run(DctcpSender, "DCTCP (deadline-agnostic):")
    d2tcp_met = run(D2tcpSender, "D2TCP (deadline-aware back-off):")
    print(f"\nD2TCP met {d2tcp_met - dctcp_met:+d} more tight deadlines "
          f"than DCTCP: urgent flows back off less, relaxed flows donate.")


if __name__ == "__main__":
    main()
