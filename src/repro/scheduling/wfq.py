"""Weighted Fair Queueing via Start-time Fair Queueing (SFQ).

True WFQ tracks the virtual time of a fluid GPS reference system, which is
expensive and subtle.  We implement Goyal's Start-time Fair Queueing, the
standard practical approximation: each packet gets a start tag
``S = max(v, F_q)`` and the queue's finish tag advances by
``size / weight``; the scheduler serves the backlogged packet with the
smallest start tag and sets the virtual time ``v`` to it.

The backlog is one heap of ``(start_tag, queue_index, arrival_no,
packet)``.  Start tags never decrease within a queue, so the heap minimum
is the queue *head* with the smallest tag — lowest queue index on a tie,
FIFO within a queue — exactly what scanning every queue head in ascending
index would pick, in O(log backlog) instead of O(``n_queues``) per packet
and with no per-queue storage on ports that never carry a packet.

SFQ has no notion of a round (it is "generic" in the paper's taxonomy),
so MQ-ECN cannot drive it — exactly the limitation PMSB removes.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional, Sequence, Tuple

from ..net.packet import Packet
from .base import Scheduler

__all__ = ["WfqScheduler"]


class WfqScheduler(Scheduler):
    """Start-time fair queueing over ``n_queues`` weighted queues."""

    def __init__(self, n_queues: int, weights: Optional[Sequence[float]] = None):
        super().__init__(n_queues, weights)
        self.clear()

    def _allocate(self) -> List[float]:
        self._heap, self._backlog = [], [0] * self.n_queues
        tags = self._finish_tag = [0.0] * self.n_queues
        return tags

    @property
    def virtual_time(self) -> float:
        """Current virtual time (start tag of the last served packet)."""
        return self._virtual_time

    def queue_len(self, queue_index: int) -> int:
        backlog = self._backlog
        return 0 if backlog is None else backlog[queue_index]

    def enqueue(self, queue_index: int, packet: Packet) -> None:
        tags = self._finish_tag
        if tags is None:
            tags = self._allocate()
        start = max(self._virtual_time, tags[queue_index])
        tags[queue_index] = start + packet.size / self.weights[queue_index]
        self._arrivals += 1
        heappush(self._heap, (start, queue_index, self._arrivals, packet))
        self._backlog[queue_index] += 1
        self._total_packets += 1

    def pass_through(self, queue_index: int, packet: Packet) -> bool:
        # The pair tags the packet and serves it at once: only the tags,
        # the virtual time and the arrival count move.
        tags = self._finish_tag
        if tags is None:
            tags = self._allocate()
        start = max(self._virtual_time, tags[queue_index])
        tags[queue_index] = start + packet.size / self.weights[queue_index]
        self._arrivals += 1
        self._virtual_time = start
        return True

    def dequeue(self) -> Optional[Tuple[int, Packet]]:
        if self._total_packets == 0:
            return None
        self._virtual_time, queue_index, _, packet = heappop(self._heap)
        self._backlog[queue_index] -= 1
        self._total_packets -= 1
        return queue_index, packet

    def clear(self) -> None:
        super().clear()
        self._virtual_time = 0.0
        self._arrivals = 0
        # Per-queue finish tags, backlogs and the heap: from a first packet.
        self._finish_tag = self._heap = self._backlog = None
