"""Empirical validation of Theorem IV.1 (bench T4).

The theorem says a queue's filter threshold must exceed
``γ_i·C·RTT/7`` or the queue underflows and throughput is lost.  We sweep
the PMSB port threshold across the bound predicted for one of two equal
queues, run the worst-case flow count from Eq. 11, and measure link
utilization: below the bound utilization should dip, above it the link
should stay full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.analysis import SteadyStateModel, worst_case_flow_count
from ..scheduling.dwrr import DwrrScheduler
from ..store.spec import RunConfig
from .scenario import incast_flows, make_scheme, run_incast

__all__ = ["BoundSweepRow", "threshold_bound_sweep", "estimate_rtt"]


def estimate_rtt(link_rate: float = 10e9, link_delay: float = 5e-6) -> float:
    """Base RTT of the single-bottleneck fabric (2 links each way)."""
    # Four propagation crossings plus two store-and-forward hops for the
    # data packet and two for the (small) ACK.
    from ..net.packet import ACK_BYTES, MTU_BYTES
    data_tx = 2 * MTU_BYTES * 8.0 / link_rate
    ack_tx = 2 * ACK_BYTES * 8.0 / link_rate
    return 4 * link_delay + data_tx + ack_tx


@dataclass(frozen=True)
class BoundSweepRow:
    """One point of the Theorem IV.1 sweep."""

    port_threshold: float
    queue_threshold: float
    bound: float
    n_flows: int
    predicted_underflow_free: bool
    utilization: float


def threshold_bound_sweep(
    threshold_factors: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
    link_rate: float = 10e9,
    config: Optional[RunConfig] = None,
) -> List[BoundSweepRow]:
    """Sweep ``k_i`` around the theorem bound and measure utilization.

    Two equal-weight queues, each carrying the worst-case number of flows
    for the configured threshold (Eq. 11, at least 2).  The PMSB port
    threshold is ``2·k_i`` so each queue's filter threshold is ``k_i``.
    """
    rtt = estimate_rtt(link_rate)
    model = SteadyStateModel(link_rate, rtt, weights=[1.0, 1.0])
    bound = model.threshold_bound(0)
    rows: List[BoundSweepRow] = []
    for factor in threshold_factors:
        k_i = bound * factor
        port_threshold = 2.0 * k_i
        n_flows = max(2, round(worst_case_flow_count(0.5, model.bdp_pkts, k_i)))
        scheme = make_scheme(
            "pmsb", link_rate=link_rate, n_queues=2,
            port_threshold_packets=port_threshold,
        )
        result = run_incast(
            scheme, lambda: DwrrScheduler(2),
            incast_flows([n_flows, n_flows]), link_rate=link_rate,
            config=config,
        )
        rows.append(
            BoundSweepRow(
                port_threshold=port_threshold,
                queue_threshold=k_i,
                bound=bound,
                n_flows=n_flows,
                predicted_underflow_free=model.underflow_free(0, k_i),
                utilization=result.total_gbps * 1e9 / link_rate,
            )
        )
    return rows
