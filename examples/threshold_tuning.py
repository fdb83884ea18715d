#!/usr/bin/env python3
"""Tuning PMSB thresholds with Theorem IV.1.

The paper's answer to "is it hard to determine the parameters?": no —
Theorem IV.1 lower-bounds each queue's filter threshold
(k_i > γ_i·C·RTT/7), and the port threshold is their sum.  This example
computes the bound for a fabric, then validates it by simulation:
utilization collapses below the bound and saturates above it.

Run:  python examples/threshold_tuning.py
"""

from repro.core.analysis import SteadyStateModel, worst_case_flow_count
from repro.experiments.analysis_validation import (estimate_rtt,
                                                   threshold_bound_sweep)
from repro.store.spec import RunConfig

LINK_RATE = 10e9
WEIGHTS = [1.0, 1.0]


def main():
    rtt = estimate_rtt(LINK_RATE)
    model = SteadyStateModel(LINK_RATE, rtt, WEIGHTS)

    print(f"fabric: {LINK_RATE / 1e9:.0f} Gbps bottleneck, base RTT "
          f"{rtt * 1e6:.1f} us -> BDP {model.bdp_pkts:.1f} packets")
    print(f"\nTheorem IV.1 bounds (k_i > gamma_i * C*RTT / 7):")
    for queue in range(len(WEIGHTS)):
        bound = model.threshold_bound(queue)
        n_star = worst_case_flow_count(model.gamma(queue), model.bdp_pkts,
                                       bound)
        print(f"  queue {queue}: k_{queue} > {bound:5.2f} packets "
              f"(worst case at ~{n_star:.1f} flows)")
    print(f"  recommended port threshold: "
          f"> {model.port_threshold_bound():.2f} packets "
          f"(paper's large-scale choice: 12)")

    print("\nvalidating by simulation (1x..4x the bound, worst-case flows):")
    print(f"  {'k_i/bound':>9s} {'k_i':>6s} {'flows':>6s} "
          f"{'predicted ok':>13s} {'utilization':>12s}")
    for row in threshold_bound_sweep(threshold_factors=(0.25, 0.5, 1.0,
                                                        2.0, 4.0),
                                     config=RunConfig(duration=0.02)):
        print(f"  {row.queue_threshold / row.bound:9.2f} "
              f"{row.queue_threshold:6.2f} {2 * row.n_flows:6d} "
              f"{str(row.predicted_underflow_free):>13s} "
              f"{row.utilization:12.3f}")

    print("\nthe knee sits at the theorem's bound: below it the queue "
          "underflows and the link runs dry; above it utilization is full.")


if __name__ == "__main__":
    main()
