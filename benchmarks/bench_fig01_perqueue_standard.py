"""E01 / Fig. 1 — per-queue marking with the standard threshold:
RTT grows with the number of active queues.

Paper setup: 8 flows to one receiver, per-queue threshold 16 packets,
queues swept 1→8, 10 Gbps.  Expected shape: RTT roughly proportional to
the number of active queues (each holds its own ~16-packet backlog).
"""

from conftest import heading, run_once

from repro.experiments.motivation import per_queue_standard_rtt
from repro.experiments.scale import BENCH
from repro.store.spec import RunConfig

STATIC = RunConfig(duration=BENCH.static_duration)


def test_fig01_rtt_vs_queue_count(benchmark):
    results = run_once(
        benchmark,
        lambda: per_queue_standard_rtt(
            queue_counts=(1, 2, 4, 8), config=STATIC),
    )
    heading("Fig. 1 — per-queue standard threshold: RTT vs active queues")
    print(f"{'queues':>6s} {'mean RTT':>12s} {'p95 RTT':>12s} {'p99 RTT':>12s}")
    for n_queues, stats in sorted(results.items()):
        print(f"{n_queues:6d} {stats.mean*1e6:10.1f}us "
              f"{stats.p95*1e6:10.1f}us {stats.p99*1e6:10.1f}us")
    assert results[8].mean > 2.0 * results[1].mean
