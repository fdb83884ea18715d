"""Per-port ECN marking.

One threshold on the port's aggregate occupancy, shared by all queues.
Throughput and latency are both good (the port behaves like DCTCP's
single queue), but packets of an un-congested queue get marked because
*other* queues fill the port — the victim-flow effect of Fig. 3 that PMSB
exists to fix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..net.packet import Packet
from .base import Marker, MarkPoint

if TYPE_CHECKING:  # pragma: no cover
    from ..net.port import Port

__all__ = ["PerPortMarker"]


class PerPortMarker(Marker):
    """Mark when the whole port's occupancy reaches the threshold."""

    _THRESHOLD_FIELDS = ("threshold_packets",)

    def __init__(
        self,
        threshold_packets: float,
        mark_point: MarkPoint = MarkPoint.ENQUEUE,
    ):
        super().__init__(mark_point)
        if threshold_packets < 0:
            raise ValueError("threshold cannot be negative")
        self.threshold_packets = float(threshold_packets)

    def _validate_thresholds(self, merged) -> None:
        if merged["threshold_packets"] < 0:
            raise ValueError("threshold cannot be negative")

    def _apply_thresholds(self, changes) -> None:
        self.threshold_packets = float(changes["threshold_packets"])

    def decide(self, port: "Port", queue_index: int, packet: Packet) -> bool:
        return port.packet_count >= self.threshold_packets
