"""Ablations on PMSB's design choices (DESIGN.md items AB1/AB2).

Neither sweep appears in the paper, but both probe the paper's central
trade-off claim (§III): the selective-blindness filter can afford to be
aggressive — a small false-positive probability buys the elimination of
false negatives.

- AB1 sweeps the *aggressiveness* of the queue filter: scale 0 is pure
  per-port marking (maximal false positives → victim flows), large scales
  approach per-queue fractional marking (false negatives → latency).
- AB2 sweeps PMSB(e)'s RTT threshold: too low accepts every mark (victim
  flows return), too high ignores real congestion (latency grows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..metrics.stats import summarize
from ..store.spec import RunConfig
from ..scheduling.dwrr import DwrrScheduler
from .scenario import incast_flows, make_scheme, run_incast

__all__ = ["AblationRow", "blindness_aggressiveness",
           "rtt_threshold_sweep", "WeightedShareRow",
           "weighted_share_preservation"]


@dataclass(frozen=True)
class AblationRow:
    """One setting of an ablation sweep on the 1:8 victim scenario."""

    parameter: float
    queue1_gbps: float
    queue2_gbps: float
    rtt_p99_us: float

    @property
    def fair_share_error(self) -> float:
        total = self.queue1_gbps + self.queue2_gbps
        if total == 0:
            return 0.0
        fair = total / 2.0
        return abs(self.queue1_gbps - fair) / fair


def blindness_aggressiveness(
    scales: Sequence[float] = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0),
    port_threshold: float = 16.0,
    flows_queue2: int = 8,
    link_rate: float = 10e9,
    config: Optional[RunConfig] = None,
) -> List[AblationRow]:
    """AB1: sweep the queue-filter scale on the 1:8 victim scenario."""
    rows: List[AblationRow] = []
    for scale in scales:
        scheme = make_scheme(
            "pmsb", link_rate=link_rate, n_queues=2,
            port_threshold_packets=port_threshold, blindness_scale=scale,
        )
        result = run_incast(
            scheme, lambda: DwrrScheduler(2),
            incast_flows([1, flows_queue2]), link_rate=link_rate,
            record_rtt=True, config=config,
        )
        samples = result.rtt_samples(queue_index=1)
        steady = samples[len(samples) // 3:]
        rows.append(
            AblationRow(
                parameter=scale,
                queue1_gbps=result.queue_gbps[0],
                queue2_gbps=result.queue_gbps[1],
                rtt_p99_us=summarize(steady).p99 * 1e6,
            )
        )
    return rows


def rtt_threshold_sweep(
    thresholds_us: Sequence[float] = (0.0, 20.0, 40.0, 80.0, 160.0),
    port_threshold: float = 16.0,
    flows_queue2: int = 8,
    link_rate: float = 10e9,
    config: Optional[RunConfig] = None,
) -> List[AblationRow]:
    """AB2: sweep PMSB(e)'s RTT threshold on the 1:8 victim scenario."""
    rows: List[AblationRow] = []
    for threshold_us in thresholds_us:
        scheme = make_scheme(
            "pmsb-e", link_rate=link_rate, n_queues=2,
            port_threshold_packets=port_threshold,
            rtt_threshold=threshold_us * 1e-6,
        )
        result = run_incast(
            scheme, lambda: DwrrScheduler(2),
            incast_flows([1, flows_queue2]), link_rate=link_rate,
            record_rtt=True, config=config,
        )
        samples = result.rtt_samples(queue_index=1)
        steady = samples[len(samples) // 3:]
        rows.append(
            AblationRow(
                parameter=threshold_us,
                queue1_gbps=result.queue_gbps[0],
                queue2_gbps=result.queue_gbps[1],
                rtt_p99_us=summarize(steady).p99 * 1e6,
            )
        )
    return rows


@dataclass(frozen=True)
class WeightedShareRow:
    """Observed vs intended split for one weight vector."""

    weights: Sequence[float]
    queue_gbps: Sequence[float]

    @property
    def max_relative_error(self) -> float:
        total_rate = sum(self.queue_gbps)
        total_weight = sum(self.weights)
        if total_rate == 0:
            return 0.0
        worst = 0.0
        for weight, rate in zip(self.weights, self.queue_gbps):
            intended = total_rate * weight / total_weight
            worst = max(worst, abs(rate - intended) / intended)
        return worst


def weighted_share_preservation(
    weight_vectors: Sequence[Sequence[float]] = ((1, 1), (3, 1), (4, 2, 1)),
    flows_per_queue: int = 2,
    port_threshold: float = 16.0,
    link_rate: float = 10e9,
    config: Optional[RunConfig] = None,
) -> List[WeightedShareRow]:
    """AB3: PMSB under *unequal* DWRR weights.

    The paper's experiments all use equal weights; Eq. 6's filter
    thresholds are weight-proportional precisely so unequal policies are
    preserved too.  Each queue gets the same number of flows, so any
    deviation from the weighted split is the marking scheme's fault, not
    demand asymmetry.
    """
    rows: List[WeightedShareRow] = []
    for weights in weight_vectors:
        n_queues = len(weights)
        scheme = make_scheme(
            "pmsb", link_rate=link_rate, n_queues=n_queues,
            weights=list(weights), port_threshold_packets=port_threshold,
        )
        result = run_incast(
            scheme,
            lambda w=tuple(weights): DwrrScheduler(len(w), list(w)),
            incast_flows([flows_per_queue] * n_queues),
            link_rate=link_rate, config=config,
        )
        rows.append(
            WeightedShareRow(
                weights=tuple(weights),
                queue_gbps=tuple(result.queue_gbps[q]
                                 for q in range(n_queues)),
            )
        )
    return rows
