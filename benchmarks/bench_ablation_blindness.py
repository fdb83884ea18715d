"""AB1 — ablation: aggressiveness of the selective-blindness filter.

Sweeps a scale factor on PMSB's per-queue filter threshold in the 1:8
victim scenario.  Scale 0 disables the filter (pure per-port marking →
victim returns); the paper's design point is 1.0; larger scales trade
latency for no fairness gain — supporting the paper's claim that the
filter can be aggressive.
"""

from conftest import heading, run_once

from repro.experiments.ablations import blindness_aggressiveness
from repro.experiments.scale import BENCH
from repro.store.spec import RunConfig

STATIC = RunConfig(duration=BENCH.static_duration)


def test_ablation_blindness_scale(benchmark):
    rows = run_once(
        benchmark,
        lambda: blindness_aggressiveness(config=STATIC),
    )
    heading("AB1 — PMSB queue-filter scale on the 1:8 victim scenario")
    print(f"{'scale':>6s} {'q1 Gbps':>8s} {'q2 Gbps':>8s} "
          f"{'fair err':>9s} {'RTT p99':>9s}")
    for row in rows:
        print(f"{row.parameter:6.2f} {row.queue1_gbps:8.2f} "
              f"{row.queue2_gbps:8.2f} {row.fair_share_error:9.2f} "
              f"{row.rtt_p99_us:7.0f}us")
    by_scale = {row.parameter: row for row in rows}
    assert by_scale[0.0].fair_share_error > 0.3   # per-port victim
    assert by_scale[1.0].fair_share_error < 0.1   # paper design point
