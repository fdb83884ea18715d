"""E05 / Fig. 5 — TCN cannot accelerate the congestion signal.

TCN's sojourn time only exists at dequeue, after the delay has been
experienced; its slow-start peak therefore matches DCTCP's *late*
(enqueue-style) feedback, not the accelerated dequeue feedback.
"""

from conftest import heading, run_once

from repro.experiments.marking_point import (dctcp_enqueue_dequeue,
                                             tcn_trace)
from repro.store.spec import RunConfig


def test_fig05_tcn_no_early_feedback(benchmark):
    def experiment():
        config = RunConfig(duration=0.02)
        return tcn_trace(config=config), dctcp_enqueue_dequeue(config=config)

    tcn, dctcp = run_once(benchmark, experiment)
    heading("Fig. 5 — TCN buffer peak vs DCTCP (no early notification)")
    print(f"TCN (dequeue only):      peak {tcn.peak:3d} pkts, "
          f"steady mean {tcn.steady_mean:5.1f}")
    print(f"DCTCP dequeue (early):   peak {dctcp['dequeue'].peak:3d} pkts")
    print(f"DCTCP enqueue (late):    peak {dctcp['enqueue'].peak:3d} pkts")
    # TCN cannot beat the accelerated-feedback peak.
    assert tcn.peak >= 0.85 * dctcp["dequeue"].peak
