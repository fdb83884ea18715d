"""Marking-point experiments (Figs. 4/5 and 11/12).

These compare *enqueue* vs *dequeue* CE marking by tracing the bottleneck
buffer through the slow-start transient of a 4-flow incast:

- DCTCP-style per-queue marking: dequeue marking cuts the slow-start peak
  by ~25% because the congestion signal reaches the sender one sojourn
  time earlier (Fig. 4);
- TCN cannot run at enqueue at all (sojourn time does not exist yet), so
  its peak equals the late-feedback case (Fig. 5);
- PMSB and PMSB(e) support both points; dequeue marking cuts their peaks
  ~20% (Figs. 11/12).

Following the paper these runs use 1 Gbps links so the transient is wide
enough to see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..ecn.base import MarkPoint
from ..scheduling.fifo import FifoScheduler
from ..store.spec import RunConfig
from .scenario import (SchemeSpec, incast_flows, make_scheme, run_incast,
                       with_duration)

__all__ = ["TraceResult", "buffer_trace", "dctcp_enqueue_dequeue",
           "tcn_trace", "pmsb_trace", "pmsbe_trace"]


@dataclass
class TraceResult:
    """Occupancy trace of one run."""

    scheme: str
    mark_point: str
    times: np.ndarray
    occupancy: np.ndarray
    peak: int

    @property
    def steady_mean(self) -> float:
        """Mean occupancy over the second half of the trace."""
        if len(self.times) == 0:
            return 0.0
        midpoint = self.times[-1] / 2.0
        mask = self.times >= midpoint
        if not mask.any():
            return float(self.occupancy.mean())
        return float(self.occupancy[mask].mean())


def buffer_trace(
    scheme: SchemeSpec,
    mark_point_label: str,
    n_flows: int = 4,
    link_rate: float = 1e9,
    init_cwnd: float = 16.0,
    config: Optional[RunConfig] = None,
) -> TraceResult:
    """Run the 4-flow single-queue incast and trace the buffer
    (``config`` duration default 0.02 s — here and in every trace
    below)."""
    result = run_incast(
        scheme, lambda: FifoScheduler(1), incast_flows([n_flows]),
        link_rate=link_rate, trace_occupancy=True, init_cwnd=init_cwnd,
        config=with_duration(config, 0.02),
    )
    times, occupancy = result.trace.as_arrays()
    return TraceResult(
        scheme=scheme.name, mark_point=mark_point_label,
        times=times, occupancy=occupancy, peak=result.trace.peak,
    )


def dctcp_enqueue_dequeue(
    threshold_packets: float = 16.0,
    link_rate: float = 1e9,
    config: Optional[RunConfig] = None,
) -> Dict[str, TraceResult]:
    """Fig. 4: DCTCP (single-queue per-queue marking) at both points."""
    results: Dict[str, TraceResult] = {}
    for point in (MarkPoint.ENQUEUE, MarkPoint.DEQUEUE):
        scheme = make_scheme(
            "per-queue-standard", link_rate=link_rate, n_queues=1,
            standard_threshold_packets=threshold_packets, mark_point=point,
        )
        results[point.value] = buffer_trace(
            scheme, point.value, link_rate=link_rate, config=config
        )
    return results


def tcn_trace(
    sojourn_threshold: float = 19.2e-6,
    link_rate: float = 1e9,
    config: Optional[RunConfig] = None,
) -> TraceResult:
    """Fig. 5: TCN's trace — necessarily dequeue, no early feedback."""
    scheme = make_scheme("tcn", link_rate=link_rate,
                         tcn_threshold=sojourn_threshold)
    return buffer_trace(scheme, "dequeue", link_rate=link_rate,
                        config=config)


def _pmsb_family_trace(
    scheme_name: str,
    port_threshold: float,
    rtt_threshold: float,
    link_rate: float,
    config: Optional[RunConfig],
) -> Dict[str, TraceResult]:
    results: Dict[str, TraceResult] = {}
    for point in (MarkPoint.ENQUEUE, MarkPoint.DEQUEUE):
        scheme = make_scheme(
            scheme_name, link_rate=link_rate, n_queues=1,
            port_threshold_packets=port_threshold,
            rtt_threshold=rtt_threshold, mark_point=point,
        )
        results[point.value] = buffer_trace(
            scheme, point.value, link_rate=link_rate, config=config
        )
    return results


def pmsb_trace(
    port_threshold: float = 12.0,
    link_rate: float = 1e9,
    config: Optional[RunConfig] = None,
) -> Dict[str, TraceResult]:
    """Fig. 11: PMSB buffer occupancy, enqueue vs dequeue marking."""
    return _pmsb_family_trace("pmsb", port_threshold, 0.0, link_rate, config)


def pmsbe_trace(
    port_threshold: float = 12.0,
    rtt_threshold: float = 14.4e-6,
    link_rate: float = 1e9,
    config: Optional[RunConfig] = None,
) -> Dict[str, TraceResult]:
    """Fig. 12: PMSB(e) buffer occupancy, enqueue vs dequeue marking.

    The paper sets the RTT threshold to 14.4 µs here (all four flows share
    one queue, so the filter should rarely suppress marks).
    """
    return _pmsb_family_trace("pmsb-e", port_threshold, rtt_threshold,
                              link_rate, config)
