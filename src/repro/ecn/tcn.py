"""TCN (Bai et al., CoNEXT 2016) — the sojourn-time baseline.

TCN marks a departing packet when its *sojourn time* (dequeue time minus
enqueue time) exceeds ``T_k = RTT × λ``.  Because the signal is the time a
packet actually spent queued, TCN works over any scheduler — but it can
only be evaluated at dequeue, after the delay has been experienced, so it
cannot deliver congestion information early (paper §II-C, Fig. 5).  The
class enforces that structural property: constructing it with an enqueue
mark point raises.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..net.packet import Packet
from .base import Marker, MarkPoint

if TYPE_CHECKING:  # pragma: no cover
    from ..net.port import Port

__all__ = ["TcnMarker"]


class TcnMarker(Marker):
    """Mark at dequeue when sojourn time exceeds the threshold."""

    supported_points = frozenset({MarkPoint.DEQUEUE})
    _THRESHOLD_FIELDS = ("sojourn_threshold",)

    def __init__(self, sojourn_threshold: float):
        super().__init__(MarkPoint.DEQUEUE)
        if sojourn_threshold < 0:
            raise ValueError("sojourn threshold cannot be negative")
        self.sojourn_threshold = sojourn_threshold

    def decide(self, port: "Port", queue_index: int, packet: Packet) -> bool:
        if packet.enqueue_time is None:  # pragma: no cover - port always stamps
            return False
        sojourn = port.sim.now - packet.enqueue_time
        return sojourn > self.sojourn_threshold
