"""AB2 — ablation: PMSB(e)'s RTT threshold sensitivity.

Sweeps the sender-side RTT threshold in the 1:8 victim scenario.
Threshold 0 accepts every mark (plain per-port DCTCP → victim); higher
thresholds restore fairness at the cost of a higher standing queue
(RTT p99 grows) — the fairness/latency dial §V's "main challenge"
alludes to.
"""

from conftest import heading, run_once

from repro.experiments.ablations import rtt_threshold_sweep
from repro.experiments.scale import BENCH
from repro.store.spec import RunConfig

STATIC = RunConfig(duration=BENCH.static_duration)


def test_ablation_rtt_threshold(benchmark):
    rows = run_once(
        benchmark,
        lambda: rtt_threshold_sweep(config=STATIC),
    )
    heading("AB2 — PMSB(e) RTT threshold on the 1:8 victim scenario")
    print(f"{'thr (us)':>8s} {'q1 Gbps':>8s} {'q2 Gbps':>8s} "
          f"{'fair err':>9s} {'RTT p99':>9s}")
    for row in rows:
        print(f"{row.parameter:8.0f} {row.queue1_gbps:8.2f} "
              f"{row.queue2_gbps:8.2f} {row.fair_share_error:9.2f} "
              f"{row.rtt_p99_us:7.0f}us")
    by_threshold = {row.parameter: row for row in rows}
    assert by_threshold[0.0].fair_share_error > 0.3
    assert by_threshold[40.0].fair_share_error < 0.15
