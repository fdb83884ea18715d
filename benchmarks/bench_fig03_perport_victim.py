"""E03 / Fig. 3 — per-port marking violates weighted fair sharing.

Paper setup: per-port threshold 16 packets, two equal-weight DWRR
queues, 1 flow vs 8 flows.  Paper result: 2.49 vs 7.51 Gbps — the lone
flow is the marking victim.  Expected shape: queue 1 well below its
5 Gbps fair share.
"""

from conftest import heading, run_once

from repro.experiments.motivation import per_port_victim
from repro.experiments.scale import BENCH
from repro.store.spec import RunConfig

STATIC = RunConfig(duration=BENCH.static_duration)


def test_fig03_victim_flow(benchmark):
    result = run_once(
        benchmark,
        lambda: per_port_victim(port_threshold=16.0, flows_queue2=8,
                                config=STATIC),
    )
    heading("Fig. 3 — per-port K=16, 1 flow vs 8 flows (paper: 2.49 / 7.51)")
    print(f"queue 1 (1 flow):  {result.queue1_gbps:5.2f} Gbps")
    print(f"queue 2 (8 flows): {result.queue2_gbps:5.2f} Gbps")
    print(f"fair-share error:  {result.fair_share_error:5.2f}")
    assert result.queue1_gbps < 0.6 * result.queue2_gbps
