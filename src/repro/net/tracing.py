"""Per-packet event tracing.

A :class:`PacketTrace` observes one or more ports and records a tuple per
datapath event — admission ("enqueue"), drop, departure — optionally
filtered by flow id or event kind.  It is the debugging companion to the
aggregate metrics: when a scheme misbehaves, the trace shows exactly
which packet was marked where and at what occupancy.

Events are plain named tuples, cheap to record and easy to assert on in
tests.
"""

from __future__ import annotations

from functools import partialmethod
from typing import Callable, Iterable, List, NamedTuple, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .packet import Packet
    from .port import Port

__all__ = ["PacketEvent", "PacketTrace", "ENQUEUE", "DEQUEUE", "DROP"]

ENQUEUE = "enqueue"
DEQUEUE = "dequeue"
DROP = "drop"


class PacketEvent(NamedTuple):
    """One datapath event."""

    time: float
    port: str
    kind: str            # "enqueue" | "dequeue" | "drop"
    flow_id: int
    seq: int
    queue_index: int
    ce: bool
    port_occupancy: int  # packets, at the instant of the event


class PacketTrace:
    """Recorder of datapath events on a set of ports."""

    def __init__(
        self,
        ports: Iterable["Port"],
        flow_filter: Optional[Callable[[int], bool]] = None,
        kinds: Iterable[str] = (ENQUEUE, DEQUEUE, DROP),
    ):
        self.events: List[PacketEvent] = []
        self._flow_filter = flow_filter
        self._kinds = frozenset(kinds)
        for port in ports:
            port.observe(self)

    def _record(self, kind: str, port: "Port", queue_index: int,
                packet: "Packet") -> None:
        if kind not in self._kinds or (
                self._flow_filter is not None
                and not self._flow_filter(packet.flow_id)):
            return
        self.events.append(
            PacketEvent(
                time=port.sim.now,
                port=port.name,
                kind=kind,
                flow_id=packet.flow_id,
                seq=packet.seq,
                queue_index=queue_index,
                ce=packet.ce,
                port_occupancy=port.packet_count,
            )
        )

    admitted = partialmethod(_record, ENQUEUE)
    departed = partialmethod(_record, DEQUEUE)
    dropped = partialmethod(_record, DROP)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> List[PacketEvent]:
        return [e for e in self.events if e.kind == kind]

    def for_flow(self, flow_id: int) -> List[PacketEvent]:
        return [e for e in self.events if e.flow_id == flow_id]

    def marked(self) -> List[PacketEvent]:
        """Departure events of CE-marked packets."""
        return [e for e in self.events if e.kind == DEQUEUE and e.ce]

    def drops(self) -> List[PacketEvent]:
        return self.of_kind(DROP)

    def sojourn_times(self, flow_id: Optional[int] = None) -> List[float]:
        """Buffer residence times from matching enqueue/dequeue pairs.

        The dequeue event fires at wire completion, so each value is
        queueing delay **plus** the packet's own serialization time —
        the full time the packet occupied buffer memory.
        """
        pending = {}
        sojourns: List[float] = []
        for event in self.events:
            if flow_id is not None and event.flow_id != flow_id:
                continue
            key = (event.port, event.flow_id, event.seq)
            if event.kind == ENQUEUE:
                pending[key] = event.time
            elif event.kind == DEQUEUE and key in pending:
                sojourns.append(event.time - pending.pop(key))
        return sojourns
