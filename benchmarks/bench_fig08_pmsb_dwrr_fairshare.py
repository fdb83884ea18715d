"""E08 / Fig. 8 — PMSB preserves weighted fair sharing under DWRR.

Paper setup: two equal-weight DWRR queues, port threshold 12 packets,
1 flow vs 4 flows.  Paper result: both queues ≈ 5 Gbps, full link
utilization.
"""

from conftest import heading, run_once

from repro.experiments.scale import BENCH
from repro.experiments.static_flows import weighted_fair_sharing
from repro.store.spec import RunConfig

STATIC = RunConfig(duration=BENCH.static_duration)


def test_fig08_pmsb_fair_share(benchmark):
    result = run_once(
        benchmark,
        lambda: weighted_fair_sharing("pmsb", flows_queue2=4,
                                      config=STATIC),
    )
    heading("Fig. 8 — PMSB, DWRR, K=12, 1 vs 4 flows (paper: ~5 / ~5 Gbps)")
    print(f"queue 1 (1 flow):  {result.queue_gbps[0]:5.2f} Gbps")
    print(f"queue 2 (4 flows): {result.queue_gbps[1]:5.2f} Gbps")
    print(f"total:             {result.total_gbps:5.2f} Gbps")
    assert abs(result.queue_gbps[0] - result.queue_gbps[1]) < 1.0
    assert result.total_gbps > 9.0
