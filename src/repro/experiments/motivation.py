"""Motivation experiments (paper §II-B, Figs. 1–3 and §III Figs. 6–7).

These reproduce the three failure modes that motivate PMSB:

- per-queue marking with the *standard* threshold → latency grows with
  the number of active queues (Fig. 1);
- per-queue marking with the *fractional* threshold → a lone flow cannot
  fill the link (Fig. 2);
- per-port marking → flows in a lightly-loaded queue become marking
  victims and weighted fair sharing breaks (Fig. 3); raising the port
  threshold repairs it for few flows (Fig. 6) but not for many (Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..metrics.stats import SummaryStats, summarize
from ..metrics.throughput import fair_share_error
from ..store.spec import RunConfig
from ..scheduling.dwrr import DwrrScheduler
from .scenario import incast_flows, make_scheme, run_incast

__all__ = [
    "per_queue_standard_rtt",
    "per_queue_fractional_throughput",
    "per_port_victim",
    "VictimResult",
]


def per_queue_standard_rtt(
    queue_counts: Sequence[int] = (1, 2, 4, 8),
    n_flows: int = 8,
    threshold_packets: float = 16.0,
    link_rate: float = 10e9,
    config: Optional[RunConfig] = None,
) -> Dict[int, SummaryStats]:
    """Fig. 1: RTT distribution vs number of active queues.

    ``n_flows`` flows from distinct senders share the bottleneck; they are
    spread evenly over ``n`` queues, each queue carrying the full standard
    threshold.  Returns RTT summaries (seconds) per queue count.
    ``config`` goes to :func:`~repro.experiments.scenario.run_incast`
    as is (default duration 0.04 s) — here and in every helper below.
    """
    results: Dict[int, SummaryStats] = {}
    for n_queues in queue_counts:
        scheme = make_scheme(
            "per-queue-standard", link_rate=link_rate, n_queues=n_queues,
            standard_threshold_packets=threshold_packets,
        )
        flows_per_queue = [0] * n_queues
        for i in range(n_flows):
            flows_per_queue[i % n_queues] += 1
        result = run_incast(
            scheme, lambda n=n_queues: DwrrScheduler(n),
            incast_flows(flows_per_queue), link_rate=link_rate,
            record_rtt=True, config=config,
        )
        samples = result.rtt_samples()
        # Skip the slow-start transient: drop the first third of samples.
        steady = samples[len(samples) // 3:]
        results[n_queues] = summarize(steady)
    return results


def per_queue_fractional_throughput(
    thresholds_packets: Sequence[float] = (2.0, 16.0),
    n_queues: int = 8,
    link_rate: float = 10e9,
    config: Optional[RunConfig] = None,
) -> Dict[float, float]:
    """Fig. 2: throughput of a single flow vs its queue's threshold.

    With 8 equal-weight queues, the fractional share of a 16-packet
    standard threshold is 2 packets — too small to keep the pipe full.
    Returns Gbps per threshold value.
    """
    results: Dict[float, float] = {}
    for threshold in thresholds_packets:
        scheme = make_scheme(
            "per-queue-standard", link_rate=link_rate, n_queues=n_queues,
            standard_threshold_packets=threshold,
        )
        flows_per_queue = [0] * n_queues
        flows_per_queue[0] = 1
        result = run_incast(
            scheme, lambda: DwrrScheduler(n_queues),
            incast_flows(flows_per_queue), link_rate=link_rate,
            config=config,
        )
        results[threshold] = result.queue_gbps[0]
    return results


@dataclass(frozen=True)
class VictimResult:
    """Per-port marking fairness outcome for one configuration."""

    port_threshold: float
    flows_queue1: int
    flows_queue2: int
    queue1_gbps: float
    queue2_gbps: float

    @property
    def fair_share_error(self) -> float:
        """|observed − fair| / fair for queue 1 (equal weights → 50%)."""
        return fair_share_error(self.queue1_gbps, self.queue2_gbps)


def per_port_victim(
    port_threshold: float = 16.0,
    flows_queue2: int = 8,
    link_rate: float = 10e9,
    config: Optional[RunConfig] = None,
) -> VictimResult:
    """Figs. 3/6/7: 1 flow vs N flows under per-port marking.

    Two equal-weight queues; queue 1 has one flow, queue 2 has
    ``flows_queue2``.  With DWRR both should get 5 Gbps; per-port marking
    starves queue 1 when the port threshold is small relative to the flow
    count.
    """
    scheme = make_scheme(
        "per-port", link_rate=link_rate,
        port_threshold_packets=port_threshold,
    )
    result = run_incast(
        scheme, lambda: DwrrScheduler(2),
        incast_flows([1, flows_queue2]), link_rate=link_rate,
        config=config,
    )
    return VictimResult(
        port_threshold=port_threshold,
        flows_queue1=1,
        flows_queue2=flows_queue2,
        queue1_gbps=result.queue_gbps[0],
        queue2_gbps=result.queue_gbps[1],
    )
