"""Scheduler interface.

A scheduler owns the per-queue packet storage of one output port and
decides which queue the next departing packet comes from.  The port calls
``enqueue(queue_index, packet)`` when a packet is admitted and
``dequeue()`` each time the link becomes free.

Round-based schedulers (WRR, DWRR) additionally report *round boundaries*
through :attr:`Scheduler.round_observer`; MQ-ECN uses this to estimate
``T_round`` without reaching into scheduler internals.  Schedulers with no
notion of rounds never invoke the observer — which is exactly the property
that makes MQ-ECN inapplicable to them (Table I of the paper).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from ..net.packet import Packet

__all__ = ["Scheduler", "normalize_weights"]


def normalize_weights(n_queues: int, weights: Optional[Sequence[float]]) -> List[float]:
    """Validate and materialize a weight vector (defaults to all-equal)."""
    if weights is None:
        return [1.0] * n_queues
    if len(weights) != n_queues:
        raise ValueError(f"expected {n_queues} weights, got {len(weights)}")
    result = [float(w) for w in weights]
    if any(w <= 0 for w in result):
        raise ValueError("weights must be positive")
    return result


class Scheduler:
    """Base class with shared storage and accounting.

    Subclasses implement :meth:`dequeue`; most reuse the base
    :meth:`enqueue`.  ``is_round_based`` advertises whether the scheduler
    has a "round" concept (and therefore drives ``round_observer``).
    """

    is_round_based = False

    def __init__(self, n_queues: int, weights: Optional[Sequence[float]] = None):
        if n_queues < 1:
            raise ValueError("a scheduler needs at least one queue")
        self.n_queues = n_queues
        self.weights = normalize_weights(n_queues, weights)
        #: Per-queue FIFO storage, created by the first packet a queue
        #: receives and dropped again by :meth:`clear`: a large fabric
        #: pays only for the queues its traffic touches.
        self._queues: List[Optional[Deque[Packet]]] = [None] * n_queues
        self._total_packets = 0
        #: Called as ``round_observer(sim_now_unknown)`` — actually with no
        #: argument — at each round boundary.  Only round-based schedulers
        #: ever invoke it.
        self.round_observer: Optional[Callable[[], None]] = None
        #: Invoked (no arguments) at the end of every :meth:`clear` —
        #: the auditor's hook for catching a ``clear()`` that bypasses
        #: :meth:`repro.net.port.Port.reset`.  Subclass ``clear``
        #: overrides run their own state reset after ``super().clear()``
        #: returns, so the observer must not inspect subclass state.
        self.clear_observer: Optional[Callable[[], None]] = None

    def __len__(self) -> int:
        return self._total_packets

    @property
    def is_empty(self) -> bool:
        return self._total_packets == 0

    def queue_len(self, queue_index: int) -> int:
        """Number of packets currently stored in ``queue_index``."""
        queue = self._queues[queue_index]
        return len(queue) if queue else 0

    def enqueue(self, queue_index: int, packet: Packet) -> None:
        """Append ``packet`` to ``queue_index``."""
        queue = self._queues[queue_index]
        if queue is None:
            queue = self._open(queue_index)
        queue.append(packet)
        self._total_packets += 1

    def _open(self, queue_index: int) -> Deque[Packet]:
        """Create a queue's storage; subclasses create their per-queue
        arrays with the first one, so an idle port holds none."""
        queue = self._queues[queue_index] = deque()
        return queue

    def dequeue(self) -> Optional[Tuple[int, Packet]]:
        """Remove and return ``(queue_index, packet)``; None when empty."""
        raise NotImplementedError

    def pass_through(self, queue_index: int, packet: Packet) -> bool:
        """Serve ``packet`` at once, without storing it.

        Called by an idle port, so only on an empty scheduler.  Returns
        True after applying exactly the state change that
        ``enqueue(queue_index, packet)`` followed by ``dequeue()`` would
        have made (that pair would return this packet); False, with no
        state change, when the pair is not known in closed form — the
        port then runs it.  The base class always declines.
        """
        return False

    def clear(self) -> None:
        """Discard all stored packets and reset scheduling state.

        The teardown hook behind :meth:`repro.net.port.Port.reset`.
        Subclasses with extra per-queue state (deficits, credits, virtual
        times) extend this so a cleared scheduler is indistinguishable
        from a freshly constructed one.
        """
        self._queues = [None] * self.n_queues
        self._total_packets = 0
        if self.clear_observer is not None:
            self.clear_observer()

    # -- helpers for subclasses ------------------------------------------

    def _pop(self, queue_index: int) -> Packet:
        packet = self._queues[queue_index].popleft()
        self._total_packets -= 1
        return packet

    def _notify_round(self) -> None:
        if self.round_observer is not None:
            self.round_observer()
