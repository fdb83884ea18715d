"""Per-queue ECN marking.

Each queue carries its own static threshold and is marked independently —
the scheme commodity chips offer out of the box.  Two canonical
configurations from the paper's motivation (§II-B):

- *standard*: every queue gets the full ``K = C·RTT·λ``.  Throughput is
  safe, but with many active queues the port holds up to ``N·K`` packets →
  high latency (Fig. 1).
- *fractional*: ``K_i = (w_i/Σw)·K``.  Latency is safe, but a lone active
  queue is throttled below link capacity (Fig. 2).
"""

from __future__ import annotations

from typing import List, Sequence, TYPE_CHECKING, Union

from ..net.packet import Packet
from .base import Marker, MarkPoint

if TYPE_CHECKING:  # pragma: no cover
    from ..net.port import Port

__all__ = ["PerQueueMarker", "standard_thresholds", "fractional_thresholds"]


def standard_thresholds(n_queues: int, threshold_packets: float) -> List[float]:
    """Every queue gets the full standard threshold."""
    return [float(threshold_packets)] * n_queues


def fractional_thresholds(
    weights: Sequence[float], threshold_packets: float
) -> List[float]:
    """Apportion the standard threshold by weight (Eq. 2 of the paper)."""
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    return [w / total * threshold_packets for w in weights]


class PerQueueMarker(Marker):
    """Mark when a packet's own queue exceeds that queue's threshold."""

    def __init__(
        self,
        thresholds: Union[float, Sequence[float]],
        mark_point: MarkPoint = MarkPoint.ENQUEUE,
    ):
        super().__init__(mark_point)
        self._scalar: float = -1.0
        self._vector: List[float] = []
        self._install(thresholds)

    def _install(self, thresholds: Union[float, Sequence[float]]) -> None:
        if isinstance(thresholds, (int, float)):
            self._scalar = float(thresholds)
            self._vector = []
        else:
            self._scalar = -1.0
            self._vector = [float(t) for t in thresholds]
            if any(t < 0 for t in self._vector):
                raise ValueError("thresholds cannot be negative")

    # The tunable value is scalar-or-vector, so the generic attribute
    # mapping does not apply; ``queue_thresholds`` is the uniform key.
    def thresholds(self):
        value = tuple(self._vector) if self._vector else self._scalar
        return {"queue_thresholds": value}

    def _validate_thresholds(self, merged) -> None:
        value = merged["queue_thresholds"]
        if isinstance(value, (int, float)):
            if value < 0:
                raise ValueError("thresholds cannot be negative")
        elif any(t < 0 for t in value):
            raise ValueError("thresholds cannot be negative")

    def _apply_thresholds(self, changes) -> None:
        self._install(changes["queue_thresholds"])

    def threshold(self, queue_index: int) -> float:
        """The marking threshold (packets) applied to one queue."""
        if self._vector:
            return self._vector[queue_index]
        return self._scalar

    def decide(self, port: "Port", queue_index: int, packet: Packet) -> bool:
        return port.queue_packet_count(queue_index) >= self.threshold(queue_index)
