"""E12 / Fig. 12 — PMSB(e) also benefits from dequeue marking.

Same 4-flow setup as Fig. 11 with the end-host variant: per-port marking
at the switch, RTT filter (14.4 µs) at the senders.
"""

from conftest import heading, run_once

from repro.experiments.marking_point import pmsbe_trace
from repro.store.spec import RunConfig


def test_fig12_pmsbe_peaks(benchmark):
    traces = run_once(
        benchmark, lambda: pmsbe_trace(config=RunConfig(duration=0.02)))
    heading("Fig. 12 — PMSB(e) buffer peak, enqueue vs dequeue "
            "(paper: 82 -> ~20% lower)")
    enq, deq = traces["enqueue"], traces["dequeue"]
    print(f"enqueue marking: peak {enq.peak:3d} pkts, "
          f"steady mean {enq.steady_mean:5.1f}")
    print(f"dequeue marking: peak {deq.peak:3d} pkts, "
          f"steady mean {deq.steady_mean:5.1f}")
    print(f"peak reduction:  {100 * (1 - deq.peak / enq.peak):4.1f}% "
          f"(paper: ~20%)")
    assert deq.peak < enq.peak
