"""Flow-completion-time collection.

The paper reports FCT statistics for three size classes: *small* flows
(≤ 100 KB, 60% of flows), *large* flows (≥ 10 MB, 10%), and the medium
flows in between.  :class:`FctCollector` plugs directly into the
transport's completion callback and produces the per-class summaries the
large-scale benches print.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

from .stats import SummaryStats, summarize

if TYPE_CHECKING:  # pragma: no cover
    from ..transport.dctcp import DctcpSender
    from ..transport.flow import Flow

__all__ = ["SizeClass", "FctRecord", "FctCollector",
           "SMALL_FLOW_MAX_BYTES", "LARGE_FLOW_MIN_BYTES"]

#: Upper bound of a "small" flow (paper §VI-B: small flows ≤ 100 KB).
SMALL_FLOW_MAX_BYTES = 100 * 1000
#: Lower bound of a "large" flow (paper §VI-B: large flows ≥ 10 MB).
LARGE_FLOW_MIN_BYTES = 10 * 1000 * 1000


class SizeClass(enum.Enum):
    """The paper's flow size classes (small ≤ 100 KB, large ≥ 10 MB)."""

    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"


def classify(size_bytes: int) -> SizeClass:
    """Paper size classes for one flow."""
    if size_bytes <= SMALL_FLOW_MAX_BYTES:
        return SizeClass.SMALL
    if size_bytes >= LARGE_FLOW_MIN_BYTES:
        return SizeClass.LARGE
    return SizeClass.MEDIUM


@dataclass(frozen=True)
class FctRecord:
    """One completed flow."""

    flow_id: int
    size_bytes: int
    service: int
    start_time: float
    fct: float

    @property
    def size_class(self) -> SizeClass:
        return classify(self.size_bytes)


class FctCollector:
    """Accumulates completions; pass :meth:`on_complete` to the senders.

    ``size_scale`` shrinks the class boundaries together with the flow
    sizes when a scale profile scales the workload — a "large" flow is
    then one whose *unscaled* size would be ≥ 10 MB.
    """

    def __init__(self, size_scale: float = 1.0) -> None:
        if size_scale <= 0:
            raise ValueError("size_scale must be positive")
        self.records: List[FctRecord] = []
        self.small_max_bytes = SMALL_FLOW_MAX_BYTES * size_scale
        self.large_min_bytes = LARGE_FLOW_MIN_BYTES * size_scale

    def classify(self, size_bytes: int) -> SizeClass:
        """Size class under this collector's (possibly scaled) bounds."""
        if size_bytes <= self.small_max_bytes:
            return SizeClass.SMALL
        if size_bytes >= self.large_min_bytes:
            return SizeClass.LARGE
        return SizeClass.MEDIUM

    def on_complete(self, flow: Flow, fct: float, sender: "DctcpSender") -> None:
        if flow.size_bytes is None:  # pragma: no cover - defensive
            return
        self.records.append(
            FctRecord(flow.flow_id, flow.size_bytes, flow.service,
                      flow.start_time, fct)
        )

    def __len__(self) -> int:
        return len(self.records)

    def fcts(self, size_class: Optional[SizeClass] = None) -> List[float]:
        """Completion times, optionally restricted to one size class."""
        if size_class is None:
            return [r.fct for r in self.records]
        return [r.fct for r in self.records
                if self.classify(r.size_bytes) is size_class]

    def summary(self, size_class: Optional[SizeClass] = None) -> SummaryStats:
        """Summary statistics over one size class (or all flows)."""
        return summarize(self.fcts(size_class))

    def summary_by_class(self) -> Dict[SizeClass, Optional[SummaryStats]]:
        """Per-class summaries (None for classes with no completions)."""
        result: Dict[SizeClass, Optional[SummaryStats]] = {}
        for size_class in SizeClass:
            values = self.fcts(size_class)
            result[size_class] = summarize(values) if values else None
        return result
