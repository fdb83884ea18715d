"""Deficit Weighted Round Robin (DWRR).

The byte-accurate round-robin variant (Shreedhar & Varghese): each
backlogged queue holds a *deficit counter*; a visit adds
``quantum_i = weight_i × quantum_bytes`` and the queue may send packets
while the head fits in the deficit.  A queue that drains loses its deficit
and leaves the active list.

DWRR is the scheduler the paper's large-scale DWRR experiments
(Figs. 16–21) and the MQ-ECN baseline both assume.  Round boundaries are
reported through ``round_observer``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Sequence, Tuple

from ..net.packet import MTU_BYTES, Packet
from .base import Scheduler

__all__ = ["DwrrScheduler"]


class DwrrScheduler(Scheduler):
    """Byte-granularity deficit weighted round robin."""

    is_round_based = True

    def __init__(
        self,
        n_queues: int,
        weights: Optional[Sequence[float]] = None,
        quantum_bytes: int = MTU_BYTES,
    ):
        super().__init__(n_queues, weights)
        if quantum_bytes < 1:
            raise ValueError("quantum_bytes must be at least 1")
        self.quantum = [w * quantum_bytes for w in self.weights]
        self.clear()

    def _open(self, queue_index: int) -> Deque[Packet]:
        # The round state is created with the first queue's storage.  A
        # queue is in ``_active`` exactly while it holds packets, and
        # only its head can be part-way through a visit.
        if self._active is None:
            self._deficit = [0.0] * self.n_queues
            self._active = deque()
            self._served_this_round = set()
        return super()._open(queue_index)

    def queue_quantum(self, queue_index: int) -> float:
        """The quantum (bytes added per round) of one queue — MQ-ECN input."""
        return self.quantum[queue_index]

    def enqueue(self, queue_index: int, packet: Packet) -> None:
        # Inlined base bookkeeping (hot path).
        queue = self._queues[queue_index]
        if queue is None:
            queue = self._open(queue_index)
        if not queue:
            self._active.append(queue_index)
        queue.append(packet)
        self._total_packets += 1

    def pass_through(self, queue_index: int, packet: Packet) -> bool:
        # On an empty scheduler every deficit is 0 and no round is open:
        # a packet that fits one quantum is served on the first visit,
        # and retiring the drained queue undoes that visit's bookkeeping.
        # A bigger one would carry a deficit into a second visit (and
        # close a round), so the pair has to run.
        if packet.size > self.quantum[queue_index]:
            return False
        if self._queues[queue_index] is None:
            self._open(queue_index)
        return True

    def dequeue(self) -> Optional[Tuple[int, Packet]]:
        if self._total_packets == 0:
            return None
        active = self._active
        deficit = self._deficit
        served = self._served_this_round
        while True:
            queue_index = active[0]
            if not self._visiting:
                # Begin a visit: a queue seen twice closes the round.
                if queue_index in served:
                    served.clear()
                    self._notify_round()
                served.add(queue_index)
                deficit[queue_index] += self.quantum[queue_index]
                self._visiting = True
            queue = self._queues[queue_index]
            if queue[0].size <= deficit[queue_index]:
                packet = queue.popleft()
                self._total_packets -= 1
                deficit[queue_index] -= packet.size
                if not queue:
                    # Retire the drained queue.  It must also leave the
                    # round bookkeeping: if it re-activates before the
                    # round completes, its next visit would otherwise
                    # look like a new round and fire a spurious
                    # round_observer notification (skewing MQ-ECN's
                    # T_round low).
                    active.popleft()
                    deficit[queue_index] = 0.0
                    self._visiting = False
                    served.discard(queue_index)
                    if not active:
                        served.clear()
                return queue_index, packet
            # Head does not fit this visit: carry the deficit to the next
            # round and move on.
            self._visiting = False
            active.rotate(-1)

    def clear(self) -> None:
        super().clear()
        self._deficit = self._active = self._served_this_round = None
        self._visiting = False
