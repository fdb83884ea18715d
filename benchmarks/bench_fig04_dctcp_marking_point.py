"""E04 / Fig. 4 — DCTCP enqueue vs dequeue marking.

Paper setup: 4 flows, one queue, 1 Gbps, threshold 16 packets.  Paper
result: slow-start peak 87 packets at enqueue marking, ~25% lower at
dequeue marking (the congestion signal arrives one sojourn time
earlier).  Expected shape: dequeue peak noticeably below enqueue peak;
steady state near the threshold for both.
"""

from conftest import heading, run_once

from repro.experiments.marking_point import dctcp_enqueue_dequeue
from repro.store.spec import RunConfig


def test_fig04_dctcp_peaks(benchmark):
    traces = run_once(benchmark, lambda: dctcp_enqueue_dequeue(
        config=RunConfig(duration=0.02)))
    heading("Fig. 4 — DCTCP slow-start buffer peak (paper: 87 -> ~25% lower)")
    enq, deq = traces["enqueue"], traces["dequeue"]
    reduction = 100.0 * (1 - deq.peak / enq.peak)
    print(f"enqueue marking: peak {enq.peak:3d} pkts, "
          f"steady mean {enq.steady_mean:5.1f}")
    print(f"dequeue marking: peak {deq.peak:3d} pkts, "
          f"steady mean {deq.steady_mean:5.1f}")
    print(f"peak reduction:  {reduction:4.1f}% (paper: ~25%)")
    assert deq.peak < enq.peak
