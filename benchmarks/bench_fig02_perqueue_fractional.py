"""E02 / Fig. 2 — per-queue marking with the fractional threshold:
a lone flow cannot fill the link.

Paper setup: 8 equal-weight queues, so the fractional share of a
16-packet standard threshold is 2 packets; one flow.  Expected shape:
K=16 reaches ~10 Gbps, K=2 falls measurably short (paper: −6%; our
store-and-forward occupancy counts the in-service packet, so the loss is
larger — see EXPERIMENTS.md E02).
"""

from conftest import heading, run_once

from repro.experiments.motivation import per_queue_fractional_throughput
from repro.experiments.scale import BENCH
from repro.store.spec import RunConfig

STATIC = RunConfig(duration=BENCH.static_duration)


def test_fig02_single_flow_throughput(benchmark):
    results = run_once(
        benchmark,
        lambda: per_queue_fractional_throughput(
            thresholds_packets=(2.0, 16.0), config=STATIC),
    )
    heading("Fig. 2 — per-queue fractional threshold: 1-flow throughput")
    print(f"{'K (packets)':>12s} {'throughput':>12s}")
    for threshold, gbps in sorted(results.items()):
        print(f"{threshold:12.0f} {gbps:10.2f} G")
    assert results[16.0] > 9.0
    assert results[2.0] < results[16.0]
