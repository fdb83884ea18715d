#!/usr/bin/env python3
"""Every ECN marking scheme on the same victim scenario.

One table, seven schemes: how each marking strategy trades off the three
metrics the paper cares about — weighted fair sharing (the 1-flow
queue's share), latency (RTT p99 of the busy queue's flows), and
throughput (total Gbps) — on the 1-vs-8-flow DWRR bottleneck.

Run:  python examples/scheme_shootout.py
"""

from repro.experiments.scenario import (incast_flows, make_scheme,
                                        run_incast)
from repro.metrics.stats import summarize
from repro.scheduling.dwrr import DwrrScheduler
from repro.store import RunConfig

SCHEMES = (
    "per-queue-standard",
    "per-queue-fractional",
    "per-port",
    "mq-ecn",
    "tcn",
    "pmsb",
    "pmsb-e",
)

DURATION = 0.03


def main():
    print("1 flow vs 8 flows, two equal DWRR queues, 10 Gbps "
          f"({DURATION * 1e3:.0f} ms simulated per scheme)\n")
    print(f"{'scheme':20s} {'q1 Gbps':>8s} {'q2 Gbps':>8s} "
          f"{'total':>7s} {'fair err':>9s} {'RTT p99':>9s}")
    for name in SCHEMES:
        scheme = make_scheme(name, n_queues=2, port_threshold_packets=16,
                             rtt_threshold=40e-6)
        result = run_incast(
            scheme, lambda: DwrrScheduler(2), incast_flows([1, 8]),
            record_rtt=True, config=RunConfig(duration=DURATION),
        )
        q0, q1 = result.queue_gbps[0], result.queue_gbps[1]
        fair = (q0 + q1) / 2
        error = abs(q0 - fair) / fair if fair else 0.0
        samples = result.rtt_samples(queue_index=1)
        p99_us = summarize(samples[len(samples) // 3:]).p99 * 1e6
        print(f"{scheme.name:20s} {q0:8.2f} {q1:8.2f} "
              f"{q0 + q1:7.2f} {error:9.2f} {p99_us:7.0f}us")

    print("\nReading the table:")
    print("- per-queue standard: fair + full rate, but worst latency")
    print("- per-queue fractional: fair + low latency, loses throughput")
    print("- per-port: full rate + low latency, starves the lone flow")
    print("- PMSB / PMSB(e): all three at once (the paper's claim)")


if __name__ == "__main__":
    main()
