"""E10 / Fig. 10 — PMSB holds fair sharing under heavy traffic (1:100).

Paper setup: same as Fig. 8 with 100 flows in queue 2.  Paper result:
the 50/50 split and full utilization hold even at this extreme ratio.
(101 hosts → this is the most expensive static bench; duration is
halved relative to the others.)
"""

from conftest import heading, run_once

from repro.experiments.static_flows import weighted_fair_sharing
from repro.store.spec import RunConfig


def test_fig10_pmsb_1v100(benchmark):
    result = run_once(
        benchmark,
        lambda: weighted_fair_sharing("pmsb", flows_queue2=100,
                                      warmup_fraction=0.5, stagger=5e-3,
                                      config=RunConfig(duration=0.03)),
    )
    heading("Fig. 10 — PMSB, DWRR, K=12, 1 vs 100 flows (paper: ~5 / ~5)")
    print(f"queue 1 (1 flow):    {result.queue_gbps[0]:5.2f} Gbps")
    print(f"queue 2 (100 flows): {result.queue_gbps[1]:5.2f} Gbps")
    print(f"total:               {result.total_gbps:5.2f} Gbps")
    assert abs(result.queue_gbps[0] - result.queue_gbps[1]) < 1.5
    assert result.total_gbps > 8.5
