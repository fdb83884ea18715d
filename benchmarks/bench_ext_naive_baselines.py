"""E-NAIVE — the §II-B commodity baselines at fabric scale.

The paper quantifies per-queue-standard, per-queue-fractional and
per-port marking only in single-switch microbenchmarks (Figs. 1–3).
This bench runs them through the full FCT harness next to PMSB,
quantifying the §II-B trade-offs in end-to-end terms: per-queue-standard
pays small-flow latency, per-queue-fractional pays large-flow
throughput, and PMSB dominates both at once.
"""

from conftest import heading, run_once

import repro.experiments.largescale as ls
from repro.ecn.per_queue import (PerQueueMarker, fractional_thresholds,
                                 standard_thresholds)
from repro.experiments.largescale import N_SERVICES, run_fct_point
from repro.experiments.scale import BENCH
from repro.metrics.fct import SizeClass

BASELINES = {
    "per-queue-std": lambda: PerQueueMarker(
        standard_thresholds(N_SERVICES, 65.0)),
    "per-queue-frac": lambda: PerQueueMarker(
        fractional_thresholds([1.0] * N_SERVICES, 65.0)),
}


def _point_with(marker_factory):
    original = ls.largescale_scheme

    def patched(name, *args, **kwargs):
        spec = original(name, *args, **kwargs)
        if marker_factory is not None and name == "pmsb":
            spec.marker_factory = marker_factory
        return spec

    ls.largescale_scheme = patched
    try:
        return run_fct_point("pmsb", "dwrr", 0.5, BENCH, seed=1)
    finally:
        ls.largescale_scheme = original


def test_naive_baselines_at_scale(benchmark):
    def experiment():
        rows = {"PMSB": _point_with(None)}
        for label, factory in BASELINES.items():
            rows[label] = _point_with(factory)
        return rows

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
