"""AB5 — PMSB port-threshold sensitivity at fabric scale.

"Is it hard to determine the parameters for PMSB?" (§VI).  Theorem IV.1
gives a lower bound (~5.5 packets for our fabric's RTT; the paper picks
12 for its 85.2 µs RTT).  This sweep runs the load-0.5 FCT point across
port thresholds to show the usable plateau: too low loses throughput
(large flows suffer), too high grows the standing queue (small-flow tail
suffers), and a wide middle band behaves like the paper's choice.
"""

from conftest import heading, run_once

from repro.experiments.largescale import run_fct_point
from repro.experiments.scale import BENCH
from repro.metrics.fct import SizeClass

THRESHOLDS = (4, 8, 12, 24, 48, 96)


def test_port_threshold_sweep(benchmark):
    rows = run_once(benchmark, lambda: {
        k: run_fct_point("pmsb", "dwrr", 0.5, BENCH, seed=1,
                         port_threshold_packets=float(k))
        for k in THRESHOLDS})
    heading("AB5 — PMSB port threshold sweep (DWRR, load 0.5; "
            "Theorem IV.1 bound ~5.5 pkts for this fabric)")
    print(f"{'K (pkts)':>8s} {'overall':>9s} {'lg avg':>9s} "
          f"{'sm avg':>9s} {'sm p99':>9s}")
    for threshold, row in rows.items():
        print(f"{threshold:8d} {row.overall.mean * 1e3:8.3f}m "
              f"{row.large.mean * 1e3:8.3f}m "
              f"{row.small.mean * 1e3:8.3f}m "
              f"{row.small.p99 * 1e3:8.3f}m")

    # The paper-style choice (12) sits on a broad plateau: its small-flow
    # tail is within 2x of the best threshold's, and a very deep
    # threshold (96) is clearly worse for small flows than the plateau.
    best_p99 = min(row.stat(SizeClass.SMALL, "p99") for row in rows.values())
    assert rows[12].stat(SizeClass.SMALL, "p99") < 2.0 * best_p99
    assert (rows[96].stat(SizeClass.SMALL, "p99")
            >= rows[12].stat(SizeClass.SMALL, "p99"))
