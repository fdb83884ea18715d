"""E11 / Fig. 11 — PMSB delivers congestion information early.

Paper setup: 4 flows, one queue, port threshold 12 packets.  Paper
result: enqueue peak 82 packets, dequeue marking ~20% lower.
"""

from conftest import heading, run_once

from repro.experiments.marking_point import pmsb_trace
from repro.store.spec import RunConfig


def test_fig11_pmsb_peaks(benchmark):
    traces = run_once(
        benchmark, lambda: pmsb_trace(config=RunConfig(duration=0.02)))
    heading("Fig. 11 — PMSB buffer peak, enqueue vs dequeue "
            "(paper: 82 -> ~20% lower)")
    enq, deq = traces["enqueue"], traces["dequeue"]
    print(f"enqueue marking: peak {enq.peak:3d} pkts, "
          f"steady mean {enq.steady_mean:5.1f}")
    print(f"dequeue marking: peak {deq.peak:3d} pkts, "
          f"steady mean {deq.steady_mean:5.1f}")
    print(f"peak reduction:  {100 * (1 - deq.peak / enq.peak):4.1f}% "
          f"(paper: ~20%)")
    assert deq.peak < enq.peak
