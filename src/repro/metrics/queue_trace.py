"""Queue-occupancy traces.

The marking-point experiments (Figs. 4/5/11/12) plot the bottleneck
buffer occupancy over time and compare slow-start *peaks* between enqueue
and dequeue marking.  :class:`QueueOccupancyTrace` records the occupancy
at every enqueue and dequeue event of one port, so peaks are captured
exactly rather than sampled.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np
    from ..net.packet import Packet
    from ..net.port import Port

__all__ = ["QueueOccupancyTrace"]


class QueueOccupancyTrace:
    """Event-driven occupancy trace of one port (optionally one queue)."""

    def __init__(self, port: "Port", queue_index: Optional[int] = None):
        self.port = port
        self.queue_index = queue_index
        self.times: List[float] = []
        self.occupancy: List[int] = []
        port.enqueue_listeners.append(self._on_event)
        port.dequeue_listeners.append(self._on_event)

    def _on_event(self, port: "Port", queue_index: int, packet: "Packet") -> None:
        if self.queue_index is None:
            value = port.packet_count
        else:
            value = port.queue_packet_count(self.queue_index)
        self.times.append(port.sim.now)
        self.occupancy.append(value)

    @property
    def peak(self) -> int:
        """Maximum observed occupancy (packets)."""
        return max(self.occupancy) if self.occupancy else 0

    def peak_before(self, t: float) -> int:
        """Maximum occupancy observed before time ``t`` (the slow-start
        peak metric of Figs. 4/11/12)."""
        best = 0
        for time, value in zip(self.times, self.occupancy):
            if time >= t:
                break
            if value > best:
                best = value
        return best

    def mean(self) -> float:
        """Time-weighted mean occupancy over the trace."""
        if len(self.times) < 2:
            return float(self.occupancy[0]) if self.occupancy else 0.0
        import numpy as np  # only the summaries need arrays
        times = np.asarray(self.times)
        values = np.asarray(self.occupancy, dtype=float)
        durations = np.diff(times)
        total = durations.sum()
        if total <= 0:
            return float(values.mean())
        return float((values[:-1] * durations).sum() / total)

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        import numpy as np
        return np.asarray(self.times), np.asarray(self.occupancy)
