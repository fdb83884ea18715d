"""E-NAIVE — the §II-B commodity baselines at fabric scale.

The paper quantifies per-queue-standard, per-queue-fractional and
per-port marking only in single-switch microbenchmarks (Figs. 1–3).
This bench runs them through the full FCT harness next to PMSB,
quantifying the §II-B trade-offs in end-to-end terms: per-queue-standard
pays small-flow latency, per-queue-fractional pays large-flow
throughput, and PMSB dominates both at once.
"""

from conftest import heading, run_once

from repro.experiments.largescale import run_fct_point
from repro.experiments.scale import BENCH
from repro.metrics.fct import SizeClass

#: Row label → scheme registry name; at the fabric's 8 queues the two
#: baselines use the §VI-B standard threshold of 65 packets.
SCHEMES = {
    "PMSB": "pmsb",
    "per-queue-std": "per-queue-standard",
    "per-queue-frac": "per-queue-fractional",
}


def test_naive_baselines_at_scale(benchmark):
    def experiment():
        return {label: run_fct_point(name, "dwrr", 0.5, BENCH, seed=1)
                for label, name in SCHEMES.items()}

    rows = run_once(benchmark, experiment)
    heading("E-NAIVE — commodity per-queue baselines vs PMSB "
            "(DWRR, load 0.5)")
    print(f"{'marking':16s} {'overall':>9s} {'lg avg':>9s} "
          f"{'sm avg':>9s} {'sm p99':>9s}")
    for label, row in rows.items():
        print(f"{label:16s} {row.overall.mean * 1e3:8.3f}m "
              f"{row.large.mean * 1e3:8.3f}m "
              f"{row.small.mean * 1e3:8.3f}m "
              f"{row.small.p99 * 1e3:8.3f}m")

    # §II-B at scale: PMSB's small-flow latency beats the standard
    # per-queue setting (which holds up to 8 standing queues per port).
    assert (rows["PMSB"].stat(SizeClass.SMALL, "mean")
            < rows["per-queue-std"].stat(SizeClass.SMALL, "mean"))
    assert all(row.completed == row.n_flows for row in rows.values())
