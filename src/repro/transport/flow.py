"""Flow descriptors.

A :class:`Flow` names one sender→receiver transfer: who talks to whom, in
which service class (→ switch queue), how many bytes (None = long-lived),
and when it starts.  Flow ids are globally unique within a scenario; the
ECMP hash and the host demultiplexers key on them.  Code under
``src/repro`` always passes ``flow_id``, so a row never depends on what
ran earlier in the process; the default draws from a process-wide
counter, a convenience for tests and examples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .base import packets_for_bytes

__all__ = ["Flow"]

_flow_ids = itertools.count(1)


def _next_flow_id() -> int:
    return next(_flow_ids)


@dataclass
class Flow:
    """One transfer through the fabric."""

    src: int
    dst: int
    #: Application bytes to move; None means a long-lived flow that never
    #: completes (static throughput experiments).
    size_bytes: Optional[int] = None
    #: DSCP-like service class → switch queue index.
    service: int = 0
    start_time: float = 0.0
    #: Completion deadline in seconds after ``start_time`` (None = no
    #: deadline).  Only deadline-aware transports (D2TCP) consult it.
    deadline: Optional[float] = None
    flow_id: int = field(default_factory=_next_flow_id)

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("flow source and destination must differ")
        if self.size_bytes is not None and self.size_bytes <= 0:
            raise ValueError("flow size must be positive (or None)")
        if self.start_time < 0:
            raise ValueError("start time cannot be negative")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")

    @property
    def size_packets(self) -> Optional[int]:
        """Data packets needed for the transfer (None for long-lived)."""
        if self.size_bytes is None:
            return None
        return packets_for_bytes(self.size_bytes)

    @property
    def is_long_lived(self) -> bool:
        return self.size_bytes is None
