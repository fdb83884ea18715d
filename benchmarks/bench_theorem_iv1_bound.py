"""T4 / Theorem IV.1 — empirical validation of the threshold lower bound.

The theorem: queue threshold ``k_i > γ_i·C·RTT/7`` avoids buffer
underflow (throughput loss) for any flow count.  We sweep ``k_i`` across
the bound at the worst-case flow count (Eq. 11) and measure utilization:
it must dip below the bound and saturate above it.
"""

from conftest import heading, run_once

from repro.experiments.analysis_validation import threshold_bound_sweep
from repro.experiments.scale import BENCH
from repro.store.spec import RunConfig

STATIC = RunConfig(duration=BENCH.static_duration)


def test_theorem_iv1_bound(benchmark):
    rows = run_once(
        benchmark,
        lambda: threshold_bound_sweep(config=STATIC),
    )
    heading("Theorem IV.1 — utilization vs queue threshold "
            "(bound = γ·C·RTT/7)")
    print(f"{'k_i / bound':>12s} {'k_i (pkts)':>11s} {'worst n':>8s} "
          f"{'predicted ok':>13s} {'utilization':>12s}")
    for row in rows:
        print(f"{row.queue_threshold / row.bound:12.2f} "
              f"{row.queue_threshold:11.2f} {row.n_flows:8d} "
              f"{str(row.predicted_underflow_free):>13s} "
              f"{row.utilization:12.3f}")
    below = [r for r in rows if not r.predicted_underflow_free]
    above = [r for r in rows if r.predicted_underflow_free]
    assert min(r.utilization for r in above) > 0.95
    assert min(r.utilization for r in below) < 0.95
