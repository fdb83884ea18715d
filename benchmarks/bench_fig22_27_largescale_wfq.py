"""E17 / Figs. 22–27 — large-scale leaf-spine FCT sweep under WFQ.

Same fabric and workload as Figs. 16–21 with WFQ scheduling.  MQ-ECN is
excluded automatically: it requires a round-based scheduler (the paper
drops it here for the same reason).

Expected shape (paper): PMSB within ~2% of TCN on overall/large FCT,
and up to tens of percent faster on small-flow FCT at every load.
"""

from conftest import heading, run_once

from repro.experiments.families import FCT, reduction_percent
from repro.experiments.scale import BENCH
from repro.metrics.fct import SizeClass
from repro.store import RunConfig, run_sweep


def test_figs22_27_wfq_sweep(benchmark):
    rows = run_once(
        benchmark,
        lambda: run_sweep(FCT, {"scheduler_name": ("wfq",)},
                          RunConfig(profile=BENCH, seed=1)),
    )
    heading("Figs. 22-27 — leaf-spine FCT sweep, WFQ scheduler "
            f"({BENCH.name} profile; MQ-ECN excluded)")
    print(f"{'scheme':10s} {'load':>5s} {'overall':>9s} {'lg avg':>9s} "
          f"{'sm avg':>9s} {'sm p95':>9s} {'sm p99':>9s}")
    for row in rows:
        def fmt(size_class, stat):
            value = row.stat(size_class, stat)
            return f"{value*1e3:8.3f}m" if value is not None else "      --"
        print(f"{row.scheme:10s} {row.load:5.1f} {fmt(None, 'mean')} "
              f"{fmt(SizeClass.LARGE, 'mean')} {fmt(SizeClass.SMALL, 'mean')} "
              f"{fmt(SizeClass.SMALL, 'p95')} {fmt(SizeClass.SMALL, 'p99')}")

    assert all(row.scheme != "MQ-ECN" for row in rows)
    print("\nSmall-flow FCT reduction of PMSB vs TCN:")
    for stat in ("mean", "p95", "p99"):
        reductions = reduction_percent(rows, "PMSB", "TCN",
                                       SizeClass.SMALL, stat)
        cells = "  ".join(f"load {load:.1f}: {value:+5.1f}%"
                          for load, value in sorted(reductions.items()))
        print(f"  {stat}: {cells}")
    small_avg = reduction_percent(rows, "PMSB", "TCN", SizeClass.SMALL, "mean")
    assert all(value > 0 for value in small_avg.values())
