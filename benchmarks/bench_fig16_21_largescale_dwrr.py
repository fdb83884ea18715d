"""E16 / Figs. 16–21 — large-scale leaf-spine FCT sweep under DWRR.

Paper setup: 48-host 4×4 leaf-spine, Poisson arrivals of the 60%-small /
10%-large mix over 8 services, DCTCP, schemes PMSB / PMSB(e) / MQ-ECN /
TCN.  This bench runs the BENCH scale profile (see EXPERIMENTS.md for
the profile's dimensions); the PAPER profile reproduces the full size.

Expected shape (paper): all schemes similar on overall and large-flow
FCT; PMSB cuts small-flow avg/95th/99th FCT by tens of percent vs TCN
and clearly beats MQ-ECN; PMSB(e) lands between.
"""

from conftest import heading, run_once

from repro.experiments.families import FCT, reduction_percent
from repro.experiments.scale import BENCH
from repro.metrics.fct import SizeClass
from repro.store import RunConfig, run_sweep


def _print_rows(rows):
    print(f"{'scheme':10s} {'load':>5s} {'overall':>9s} {'lg avg':>9s} "
          f"{'lg p99':>9s} {'sm avg':>9s} {'sm p95':>9s} {'sm p99':>9s}")
    for row in rows:
        def fmt(size_class, stat):
            value = row.stat(size_class, stat)
            return f"{value*1e3:8.3f}m" if value is not None else "      --"
        print(f"{row.scheme:10s} {row.load:5.1f} {fmt(None, 'mean')} "
              f"{fmt(SizeClass.LARGE, 'mean')} {fmt(SizeClass.LARGE, 'p99')} "
              f"{fmt(SizeClass.SMALL, 'mean')} {fmt(SizeClass.SMALL, 'p95')} "
              f"{fmt(SizeClass.SMALL, 'p99')}")


def _print_headline(rows):
    print("\nSmall-flow FCT reduction of PMSB (positive = PMSB faster):")
    for baseline in ("TCN", "MQ-ECN"):
        for stat, label in (("mean", "avg"), ("p95", "p95"), ("p99", "p99")):
            reductions = reduction_percent(rows, "PMSB", baseline,
                                           SizeClass.SMALL, stat)
            cells = "  ".join(f"load {load:.1f}: {value:+5.1f}%"
                              for load, value in sorted(reductions.items()))
            print(f"  vs {baseline:7s} {label}: {cells}")


def test_figs16_21_dwrr_sweep(benchmark):
    rows = run_once(
        benchmark,
        lambda: run_sweep(FCT, {"scheduler_name": ("dwrr",)},
                          RunConfig(profile=BENCH, seed=1)),
    )
    heading("Figs. 16-21 — leaf-spine FCT sweep, DWRR scheduler "
            f"({BENCH.name} profile)")
    _print_rows(rows)
    _print_headline(rows)

    small_avg = reduction_percent(rows, "PMSB", "TCN", SizeClass.SMALL, "mean")
    # Shape check: PMSB beats TCN on small-flow average FCT at every load.
    assert all(value > 0 for value in small_avg.values())
    # Overall FCT stays comparable (within 30%) across schemes.
    overall = reduction_percent(rows, "PMSB", "TCN", None, "mean")
    assert all(abs(value) < 30 for value in overall.values())
