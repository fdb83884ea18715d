"""E14 / Fig. 14 — PMSB preserves a strict-priority policy.

Paper setup: three SP queues; a paced 5 Gbps source (highest), a paced
3 Gbps source (middle), an unlimited source (lowest), activating in
stages.  Paper result: settled throughput 5 / 3 / 2 Gbps.
"""

from conftest import heading, run_once

from repro.experiments.static_flows import scheduler_sp
from repro.store.spec import RunConfig


def test_fig14_sp_policy(benchmark):
    result = run_once(
        benchmark, lambda: scheduler_sp(config=RunConfig(duration=0.06)))
    heading("Fig. 14 — PMSB over SP (paper: 5 / 3 / 2 Gbps settled)")
    print(f"{'phase':12s} {'q1':>8s} {'q2':>8s} {'q3':>8s}")
    for _t0, _t1, label in result.phases:
        rates = result.phase_gbps[label]
        print(f"{label:12s} {rates[0]:7.2f}G {rates[1]:7.2f}G {rates[2]:7.2f}G")
    settled = result.settled()
    assert abs(settled[0] - 5.0) < 0.8
    assert abs(settled[1] - 3.0) < 0.7
    assert abs(settled[2] - 2.0) < 0.7
