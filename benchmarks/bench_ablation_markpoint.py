"""AB4 — PMSB's mark point at fabric scale.

Design goal 3 of the paper claims dequeue marking delivers congestion
information early (validated on buffer traces in Figs. 11/12), yet the
large-scale evaluation marks at enqueue.  This ablation runs the FCT
point at both mark points: the small-flow tail should benefit from (or
at least not be hurt by) the earlier signal.
"""

from conftest import heading, run_once

from repro.ecn.base import MarkPoint
from repro.experiments.largescale import run_fct_point
from repro.experiments.scale import BENCH
from repro.metrics.fct import SizeClass


def test_markpoint_at_scale(benchmark):
    def experiment():
        return {p.value: run_fct_point("pmsb", "dwrr", 0.5, BENCH, seed=1,
                                       mark_point=p)
                for p in (MarkPoint.ENQUEUE, MarkPoint.DEQUEUE)}

    rows = run_once(benchmark, experiment)
    heading("AB4 — PMSB mark point at fabric scale (DWRR, load 0.5)")
    print(f"{'mark point':>10s} {'overall':>9s} {'sm avg':>9s} "
          f"{'sm p99':>9s}")
    for label, row in rows.items():
        print(f"{label:>10s} {row.overall.mean * 1e3:8.3f}m "
              f"{row.small.mean * 1e3:8.3f}m {row.small.p99 * 1e3:8.3f}m")
    # The earlier signal must not hurt the small-flow tail materially.
    assert (rows["dequeue"].stat(SizeClass.SMALL, "p99")
            < 1.25 * rows["enqueue"].stat(SizeClass.SMALL, "p99"))
