"""E15 / Fig. 15 — PMSB preserves a WFQ policy.

Paper setup: two equal-weight WFQ queues; one flow alone, then four
flows join the other queue.  Paper result: 10 Gbps alone, then a 5/5
split.
"""

from conftest import heading, run_once

from repro.experiments.static_flows import scheduler_wfq
from repro.store.spec import RunConfig


def test_fig15_wfq_policy(benchmark):
    result = run_once(
        benchmark, lambda: scheduler_wfq(config=RunConfig(duration=0.06)))
    heading("Fig. 15 — PMSB over WFQ (paper: 10 Gbps alone -> 5 / 5 split)")
    print(f"{'phase':12s} {'q1':>8s} {'q2':>8s}")
    for _t0, _t1, label in result.phases:
        rates = result.phase_gbps[label]
        print(f"{label:12s} {rates[0]:7.2f}G {rates[1]:7.2f}G")
    alone = result.phase_gbps["q1 only"]
    settled = result.settled()
    assert alone[0] > 9.0
    assert abs(settled[0] - settled[1]) < 1.0
