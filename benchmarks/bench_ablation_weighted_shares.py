"""AB3 — PMSB under unequal DWRR weights.

Every experiment in the paper uses equal queue weights; Eq. 6's filter
thresholds are weight-proportional precisely so that *any* weighted
policy is preserved.  This bench checks PMSB against 1:1, 3:1 and 4:2:1
weight vectors with symmetric demand.
"""

from conftest import heading, run_once

from repro.experiments.ablations import weighted_share_preservation
from repro.experiments.scale import BENCH
from repro.store.spec import RunConfig

STATIC = RunConfig(duration=BENCH.static_duration)


def test_weighted_share_preservation(benchmark):
    rows = run_once(
        benchmark,
        lambda: weighted_share_preservation(config=STATIC),
    )
    heading("AB3 — PMSB preserves unequal DWRR weights")
    for row in rows:
        weights = ":".join(str(int(w)) for w in row.weights)
        rates = " / ".join(f"{g:5.2f}G" for g in row.queue_gbps)
        print(f"weights {weights:6s} -> {rates}   "
              f"(max relative error {row.max_relative_error * 100:.1f}%)")
    assert all(row.max_relative_error < 0.05 for row in rows)
