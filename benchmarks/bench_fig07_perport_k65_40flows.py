"""E07 / Fig. 7 — the 65-packet per-port threshold breaks again at 1:40.

Paper observation (§III): a fixed port threshold cannot scale with the
crossing flow count; at 40 flows the stable buffer point exceeds it and
the victim effect returns — raising the threshold is not a solution.
"""

from conftest import heading, run_once

from repro.experiments.motivation import per_port_victim
from repro.experiments.scale import BENCH
from repro.store.spec import RunConfig

STATIC = RunConfig(duration=BENCH.static_duration)


def test_fig07_large_threshold_still_breaks(benchmark):
    result = run_once(
        benchmark,
        lambda: per_port_victim(port_threshold=65.0, flows_queue2=40,
                                config=STATIC),
    )
    heading("Fig. 7 — per-port K=65, 1 flow vs 40 flows (violated again)")
    print(f"queue 1 (1 flow):   {result.queue1_gbps:5.2f} Gbps")
    print(f"queue 2 (40 flows): {result.queue2_gbps:5.2f} Gbps")
    assert result.queue1_gbps < 0.6 * result.queue2_gbps
