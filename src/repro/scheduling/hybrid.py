"""Hierarchical SP+WFQ scheduling.

The paper's Fig. 13 experiment configures "SP+WFQ with three queues:
queue 1 has a strict higher priority while queue 2 and queue 3 have equal
weights in the lowest priority".  ``SpWfqScheduler`` expresses that
directly: every queue has a priority level (lower value wins outright) and
a weight; among same-level queues, bandwidth is shared with start-time
fair queueing — one heap keyed ``(level, start_tag, queue_index,
arrival_no)``, the :mod:`~repro.scheduling.wfq` order with the priority
level in front.

Setting distinct priorities for every queue degenerates to strict
priority; a single shared level degenerates to WFQ — both covered by
dedicated classes, so this one is used only for genuine hybrids.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from ..net.packet import Packet
from .base import Scheduler

__all__ = ["SpWfqScheduler"]


class SpWfqScheduler(Scheduler):
    """Strict priority across levels, SFQ within a level."""

    def __init__(
        self,
        n_queues: int,
        priorities: Sequence[int],
        weights: Optional[Sequence[float]] = None,
    ):
        super().__init__(n_queues, weights)
        if len(priorities) != n_queues:
            raise ValueError(f"expected {n_queues} priorities, got {len(priorities)}")
        self.priorities = list(priorities)
        self._reset()

    def _reset(self) -> None:
        #: Priority level -> its SFQ virtual time.
        self._virtual_time: Dict[int, float] = dict.fromkeys(self.priorities, 0.0)
        self._finish_tag = [0.0] * self.n_queues
        self._heap: List[Tuple[int, float, int, int, Packet]] = []
        self._backlog = [0] * self.n_queues
        self._arrivals = 0

    def queue_len(self, queue_index: int) -> int:
        return self._backlog[queue_index]

    def enqueue(self, queue_index: int, packet: Packet) -> None:
        level = self.priorities[queue_index]
        start = max(self._virtual_time[level], self._finish_tag[queue_index])
        self._finish_tag[queue_index] = start + packet.size / self.weights[queue_index]
        self._arrivals += 1
        heappush(self._heap, (level, start, queue_index, self._arrivals, packet))
        self._backlog[queue_index] += 1
        self._total_packets += 1

    def dequeue(self) -> Optional[Tuple[int, Packet]]:
        if self._total_packets == 0:
            return None
        level, start, queue_index, _, packet = heappop(self._heap)
        self._virtual_time[level] = start
        self._backlog[queue_index] -= 1
        self._total_packets -= 1
        return queue_index, packet

    def clear(self) -> None:
        super().clear()
        self._reset()
