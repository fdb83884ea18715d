"""First-in-first-out scheduling.

``FifoScheduler`` serves packets strictly in arrival order regardless of
which queue they sit in.  With ``n_queues=1`` it is the plain drop-tail
discipline used by host NICs; with more queues it still provides the
per-queue occupancy accounting markers rely on, while the service order
ignores queue boundaries (useful as a degenerate baseline).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Sequence, Tuple

from ..net.packet import Packet
from .base import Scheduler

__all__ = ["FifoScheduler"]


class FifoScheduler(Scheduler):
    """Global FIFO across all queues."""

    def __init__(self, n_queues: int = 1, weights: Optional[Sequence[float]] = None):
        super().__init__(n_queues, weights)
        #: Queue index of every stored packet, in arrival order (_open).
        self._order: Optional[Deque[int]] = None

    def _open(self, queue_index: int) -> Deque[Packet]:
        if self._order is None:
            self._order = deque()
        return super()._open(queue_index)

    def enqueue(self, queue_index: int, packet: Packet) -> None:
        # Inlined base bookkeeping: host NIC ports make this the most
        # frequently called scheduler method in the fabric.
        queue = self._queues[queue_index]
        if queue is None:
            queue = self._open(queue_index)
        queue.append(packet)
        self._total_packets += 1
        self._order.append(queue_index)

    def pass_through(self, queue_index: int, packet: Packet) -> bool:
        # The pair leaves only the queue's storage behind.
        if self._queues[queue_index] is None:
            self._open(queue_index)
        return True

    def dequeue(self) -> Optional[Tuple[int, Packet]]:
        if self._total_packets == 0:
            return None
        queue_index = self._order.popleft()
        self._total_packets -= 1
        return queue_index, self._queues[queue_index].popleft()

    def clear(self) -> None:
        super().clear()
        self._order = None
