#!/usr/bin/env python3
"""PMSB over generic packet schedulers (paper Figs. 13–15).

MQ-ECN only works over round-based schedulers; PMSB's claim is that one
marking scheme serves them all.  This example runs the paper's three
scheduler-policy scenarios — SP+WFQ, pure SP with rate-limited sources,
and WFQ — and prints the throughput staircase of each phase against the
policy's intended allocation.

Run:  python examples/scheduler_policies.py
"""

from repro.experiments.static_flows import (scheduler_sp, scheduler_sp_wfq,
                                            scheduler_wfq)
from repro.store.spec import RunConfig

EXPECTED = {
    "SP+WFQ": {"q1+q2+q3": (5.0, 2.5, 2.5)},
    "SP": {"q1+q2+q3": (5.0, 3.0, 2.0)},
    "WFQ": {"q1+q2": (5.0, 5.0)},
}


def show(result):
    print(f"\n{result.scheduler} under {result.scheme} marking")
    header = "  ".join(f"{'q' + str(q + 1):>7s}" for q in sorted(result.series))
    print(f"  {'phase':12s} {header}")
    for _t0, _t1, label in result.phases:
        rates = result.phase_gbps[label]
        cells = "  ".join(f"{rates[q]:5.2f}G" for q in sorted(rates))
        print(f"  {label:12s} {cells}")
    expected = EXPECTED[result.scheduler].get(result.phases[-1][2])
    if expected:
        cells = " / ".join(f"{v:.1f}G" for v in expected)
        print(f"  intended settled allocation: {cells}")


def main():
    print("PMSB preserves scheduling policies that MQ-ECN cannot serve.")
    show(scheduler_sp_wfq(config=RunConfig(duration=0.06)))
    show(scheduler_sp(config=RunConfig(duration=0.06)))
    show(scheduler_wfq(config=RunConfig(duration=0.06)))


if __name__ == "__main__":
    main()
