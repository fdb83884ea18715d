"""E13 / Fig. 13 — PMSB preserves an SP+WFQ policy.

Paper setup: queue 1 strict-high (paced 5 Gbps source), queues 2/3
equal WFQ weights; sources activate in stages.  Paper result: settled
throughput 5 / 2.5 / 2.5 Gbps, with queue 2 at 5 Gbps while queue 3 is
inactive.
"""

from conftest import heading, run_once

from repro.experiments.static_flows import scheduler_sp_wfq
from repro.store.spec import RunConfig


def test_fig13_sp_wfq_policy(benchmark):
    result = run_once(
        benchmark, lambda: scheduler_sp_wfq(config=RunConfig(duration=0.06)))
    heading("Fig. 13 — PMSB over SP+WFQ (paper: 5 / 2.5 / 2.5 Gbps settled)")
    print(f"{'phase':12s} {'q1':>8s} {'q2':>8s} {'q3':>8s}")
    for _t0, _t1, label in result.phases:
        rates = result.phase_gbps[label]
        print(f"{label:12s} {rates[0]:7.2f}G {rates[1]:7.2f}G {rates[2]:7.2f}G")
    settled = result.settled()
    assert abs(settled[0] - 5.0) < 0.8
    assert abs(settled[1] - 2.5) < 0.7
    assert abs(settled[2] - 2.5) < 0.7
