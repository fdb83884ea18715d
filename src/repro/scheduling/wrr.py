"""Weighted Round Robin (WRR).

Each backlogged queue is visited in cyclic order and may send up to
``weight_i`` packets per visit.  WRR is round-based: the scheduler fires
``round_observer`` every time a new service round begins, which is the
signal MQ-ECN needs to estimate ``T_round``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Sequence, Set, Tuple

from ..net.packet import MTU_BYTES, Packet
from .base import Scheduler

__all__ = ["WrrScheduler"]


class WrrScheduler(Scheduler):
    """Packet-granularity weighted round robin."""

    is_round_based = True

    def __init__(self, n_queues: int, weights: Optional[Sequence[float]] = None):
        super().__init__(n_queues, weights)
        #: Packets a queue may send per visit (at least one).
        self._per_visit = [max(1, int(round(w))) for w in self.weights]
        self._credit = [0] * n_queues
        #: Queues holding packets, in visiting order.
        self._active: Deque[int] = deque()
        self._served_this_round: Set[int] = set()

    def queue_quantum(self, queue_index: int) -> float:
        """Approximate bytes served per round (MQ-ECN input): WRR grants
        packets, so the quantum is the per-visit packet budget in MTUs."""
        return self._per_visit[queue_index] * MTU_BYTES

    def enqueue(self, queue_index: int, packet: Packet) -> None:
        super().enqueue(queue_index, packet)
        if len(self._queues[queue_index]) == 1:
            self._active.append(queue_index)

    def dequeue(self) -> Optional[Tuple[int, Packet]]:
        if self._total_packets == 0:
            return None
        queue_index = self._active[0]
        if self._credit[queue_index] == 0:
            self._begin_visit(queue_index)
        packet = self._pop(queue_index)
        self._credit[queue_index] -= 1
        if not self._queues[queue_index]:
            self._retire(queue_index)
        elif self._credit[queue_index] == 0:
            self._active.rotate(-1)
        return queue_index, packet

    def _begin_visit(self, queue_index: int) -> None:
        if queue_index in self._served_this_round:
            self._served_this_round.clear()
            self._notify_round()
        self._served_this_round.add(queue_index)
        self._credit[queue_index] = self._per_visit[queue_index]

    def _retire(self, queue_index: int) -> None:
        self._active.popleft()
        self._credit[queue_index] = 0
        # Same round-bookkeeping rule as DWRR: a drained queue that
        # re-activates within the round must not look like a new round.
        self._served_this_round.discard(queue_index)
        if not self._active:
            # The backlog drained: the current round is over.
            self._served_this_round.clear()

    def clear(self) -> None:
        super().clear()
        self._credit = [0] * self.n_queues
        self._active.clear()
        self._served_this_round.clear()
