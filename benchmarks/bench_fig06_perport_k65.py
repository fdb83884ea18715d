"""E06 / Fig. 6 — raising the per-port threshold to 65 packets restores
fair sharing for 1:8 flows.

Paper observation (§III): with K=65 the victim flow's marking ratio is
low enough that it does not back off excessively, so the 50/50 split
holds — the insight behind "selective blindness can be aggressive".
"""

from conftest import heading, run_once

from repro.experiments.motivation import per_port_victim
from repro.experiments.scale import BENCH
from repro.store.spec import RunConfig

STATIC = RunConfig(duration=BENCH.static_duration)


def test_fig06_large_threshold_fair(benchmark):
    result = run_once(
        benchmark,
        lambda: per_port_victim(port_threshold=65.0, flows_queue2=8,
                                config=STATIC),
    )
    heading("Fig. 6 — per-port K=65, 1 flow vs 8 flows (fairness restored)")
    print(f"queue 1 (1 flow):  {result.queue1_gbps:5.2f} Gbps")
    print(f"queue 2 (8 flows): {result.queue2_gbps:5.2f} Gbps")
    assert result.fair_share_error < 0.15
