"""Static-flow experiments (paper §VI-A, Figs. 8–10 and 13–15).

Long-lived flows through one bottleneck, checking that PMSB simultaneously
achieves weighted fair sharing, high throughput, low latency, and respect
for arbitrary scheduling policies (DWRR, WFQ, SP, SP+WFQ).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..metrics.stats import SummaryStats, summarize
from ..scheduling.base import Scheduler
from ..scheduling.dwrr import DwrrScheduler
from ..scheduling.hybrid import SpWfqScheduler
from ..scheduling.strict_priority import StrictPriorityScheduler
from ..scheduling.wfq import WfqScheduler
from ..store.spec import RunConfig
from .scenario import (IncastResult, SchemeSpec, incast_flows, make_scheme,
                       run_incast, with_duration)

__all__ = [
    "weighted_fair_sharing",
    "rtt_distribution",
    "PolicyResult",
    "scheduler_sp_wfq",
    "scheduler_sp",
    "scheduler_wfq",
]


def weighted_fair_sharing(
    scheme_name: str = "pmsb",
    flows_queue2: int = 4,
    port_threshold: float = 12.0,
    rtt_threshold: float = 40e-6,
    link_rate: float = 10e9,
    warmup_fraction: float = 1.0 / 3.0,
    stagger: float = 0.0,
    config: Optional[RunConfig] = None,
) -> IncastResult:
    """Figs. 8/10: DWRR, two equal queues, 1 flow vs N flows.

    PMSB should hold both queues at ~C/2 regardless of ``flows_queue2``
    (the paper shows 1:4 and 1:100).  ``stagger`` spreads queue-2 flow
    starts over that many seconds — at 1:100, a perfectly synchronized
    100×16-packet initial burst is an incast artifact, not the paper's
    long-lived steady state.  ``config`` goes to
    :func:`~repro.experiments.scenario.run_incast` as is (default
    duration 0.04 s).
    """
    scheme = make_scheme(
        scheme_name, link_rate=link_rate, n_queues=2,
        port_threshold_packets=port_threshold, rtt_threshold=rtt_threshold,
    )
    flows = incast_flows([1, flows_queue2])
    if stagger > 0:
        for index, flow in enumerate(flows[1:]):
            flow.start_time = stagger * index / max(1, flows_queue2 - 1)
    return run_incast(
        scheme, lambda: DwrrScheduler(2), flows,
        warmup_fraction=warmup_fraction, link_rate=link_rate,
        config=config,
    )


def rtt_distribution(
    scheme_names: Sequence[str] = ("pmsb", "pmsb-e", "mq-ecn", "tcn",
                                   "per-queue-standard"),
    flows_queue2: int = 4,
    port_threshold: float = 12.0,
    rtt_threshold: float = 40e-6,
    tcn_threshold: float = 39e-6,
    standard_threshold: float = 16.0,
    link_rate: float = 10e9,
    config: Optional[RunConfig] = None,
) -> Dict[str, SummaryStats]:
    """Fig. 9: RTT distribution of queue-2 flows under each scheme.

    The paper's settings: DWRR with two equal queues (1 vs 4 flows), port
    threshold 12 packets, PMSB(e) RTT threshold 40 µs, TCN threshold
    39 µs, per-queue standard threshold 16 packets.  Returns RTT summary
    (seconds) per scheme display name.
    """
    results: Dict[str, SummaryStats] = {}
    for name in scheme_names:
        scheme = make_scheme(
            name, link_rate=link_rate, n_queues=2,
            port_threshold_packets=port_threshold,
            rtt_threshold=rtt_threshold, tcn_threshold=tcn_threshold,
            standard_threshold_packets=standard_threshold,
        )
        result = run_incast(
            scheme, lambda: DwrrScheduler(2),
            incast_flows([1, flows_queue2]), link_rate=link_rate,
            record_rtt=True, config=config,
        )
        samples = result.rtt_samples(queue_index=1)
        steady = samples[len(samples) // 3:]
        results[scheme.name] = summarize(steady)
    return results


@dataclass
class PolicyResult:
    """Outcome of one scheduler-policy experiment (Figs. 13–15)."""

    scheme: str
    scheduler: str
    duration: float
    #: (t0, t1, label) activity phases of the experiment.
    phases: List[Tuple[float, float, str]]
    #: phase label -> {queue: Gbps averaged over the phase's settled half}.
    phase_gbps: Dict[str, Dict[int, float]]
    #: queue -> (times, gbps) full time series.
    series: Dict[int, Tuple[np.ndarray, np.ndarray]]

    def settled(self, phase_label: Optional[str] = None) -> Dict[int, float]:
        """Per-queue Gbps in the last phase (or a named one)."""
        if phase_label is None:
            phase_label = self.phases[-1][2]
        return self.phase_gbps[phase_label]


def _run_policy(
    scheme: SchemeSpec,
    scheduler_name: str,
    scheduler_factory: Callable[[], Scheduler],
    flows_per_queue: Sequence[int],
    start_times: Sequence[float],
    rate_limits_by_queue: Dict[int, float],
    phases: List[Tuple[float, float, str]],
    config: RunConfig,
    link_rate: float,
) -> PolicyResult:
    flows = incast_flows(flows_per_queue, start_times=start_times)
    rate_limits = {
        flow.src: rate_limits_by_queue[flow.service]
        for flow in flows if flow.service in rate_limits_by_queue
    }
    result = run_incast(
        scheme, scheduler_factory, flows, link_rate=link_rate,
        rate_limits=rate_limits or None, config=config,
    )
    duration = config.duration
    n_queues = len(flows_per_queue)
    phase_gbps: Dict[str, Dict[int, float]] = {}
    for t0, t1, label in phases:
        # Average over the settled second half of the phase.
        midpoint = t0 + (t1 - t0) / 2.0
        phase_gbps[label] = {
            q: result.meter.average_bps(q, midpoint, t1) / 1e9
            for q in range(n_queues)
        }
    series = {q: result.meter.series(q, 0.0, duration) for q in range(n_queues)}
    return PolicyResult(
        scheme=scheme.name, scheduler=scheduler_name, duration=duration,
        phases=phases, phase_gbps=phase_gbps, series=series,
    )


def scheduler_sp_wfq(
    scheme_name: str = "pmsb",
    port_threshold: float = 12.0,
    rtt_threshold: float = 40e-6,
    link_rate: float = 10e9,
    config: Optional[RunConfig] = None,
) -> PolicyResult:
    """Fig. 13: SP+WFQ — queue 1 strictly prioritized (a paced 5 Gbps
    flow), queues 2 and 3 share the remainder with equal WFQ weights.

    Expected settled allocation: 5 / 2.5 / 2.5 Gbps.
    """
    scheme = make_scheme(
        scheme_name, link_rate=link_rate, n_queues=3,
        port_threshold_packets=port_threshold, rtt_threshold=rtt_threshold,
    )
    config = with_duration(config, 0.06)
    duration = config.duration
    t1 = duration / 3.0
    t2 = 2.0 * duration / 3.0
    phases = [
        (0.0, t1, "q1 only"),
        (t1, t2, "q1+q2"),
        (t2, duration, "q1+q2+q3"),
    ]
    return _run_policy(
        scheme, "SP+WFQ",
        lambda: SpWfqScheduler(3, priorities=[0, 1, 1]),
        flows_per_queue=[1, 1, 4],
        start_times=[0.0, t1, t2],
        rate_limits_by_queue={0: 5e9},
        phases=phases, config=config, link_rate=link_rate,
    )


def scheduler_sp(
    scheme_name: str = "pmsb",
    port_threshold: float = 12.0,
    rtt_threshold: float = 40e-6,
    link_rate: float = 10e9,
    config: Optional[RunConfig] = None,
) -> PolicyResult:
    """Fig. 14: SP with three priorities and rate-limited sources
    (5 Gbps / 3 Gbps / unlimited) → expected 5 / 3 / 2 Gbps settled."""
    scheme = make_scheme(
        scheme_name, link_rate=link_rate, n_queues=3,
        port_threshold_packets=port_threshold, rtt_threshold=rtt_threshold,
    )
    config = with_duration(config, 0.06)
    duration = config.duration
    t1 = duration / 3.0
    t2 = 2.0 * duration / 3.0
    phases = [
        (0.0, t1, "q1 only"),
        (t1, t2, "q1+q2"),
        (t2, duration, "q1+q2+q3"),
    ]
    return _run_policy(
        scheme, "SP",
        lambda: StrictPriorityScheduler(3),
        flows_per_queue=[1, 1, 1],
        start_times=[0.0, t1, t2],
        rate_limits_by_queue={0: 5e9, 1: 3e9},
        phases=phases, config=config, link_rate=link_rate,
    )


def scheduler_wfq(
    scheme_name: str = "pmsb",
    port_threshold: float = 12.0,
    rtt_threshold: float = 40e-6,
    link_rate: float = 10e9,
    config: Optional[RunConfig] = None,
) -> PolicyResult:
    """Fig. 15: WFQ with two equal queues — 1 flow, then 4 more in the
    other queue → 10 Gbps alone, then a 5 / 5 split."""
    scheme = make_scheme(
        scheme_name, link_rate=link_rate, n_queues=2,
        port_threshold_packets=port_threshold, rtt_threshold=rtt_threshold,
    )
    config = with_duration(config, 0.06)
    duration = config.duration
    t1 = duration / 2.0
    phases = [
        (0.0, t1, "q1 only"),
        (t1, duration, "q1+q2"),
    ]
    return _run_policy(
        scheme, "WFQ",
        lambda: WfqScheduler(2),
        flows_per_queue=[1, 4],
        start_times=[0.0, t1],
        rate_limits_by_queue={},
        phases=phases, config=config, link_rate=link_rate,
    )
