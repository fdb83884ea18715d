"""Switch output port: buffer accounting, marking hooks, transmission.

The port owns

- a :class:`~repro.scheduling.base.Scheduler` providing per-queue storage
  and the service discipline,
- an optional :class:`~repro.ecn.base.Marker` consulted at enqueue and
  dequeue,
- the outgoing :class:`~repro.net.link.Link`.

Occupancy is tracked in both packets and bytes at port and queue
granularity; the paper quotes all thresholds in packets, so markers read
``port.packet_count`` / ``port.queue_packet_count(i)``.

Semantics: a packet occupies the buffer until it is **fully serialized**
onto the wire (store-and-forward).  This matters: a busy port always
counts at least the in-service packet, so a single line-rate flow sees
occupancy 2 at every enqueue — which is exactly why the paper's Fig. 2
per-queue *fractional* thresholds (K=2) throttle a lone flow while K=16
does not.  Marking at dequeue is evaluated when transmission starts,
while the packet still counts toward occupancy.

The hop
-------

A port is bound at construction to one of two hops.  The *general* hop
runs the scheduler's ``enqueue``/``dequeue`` pair and both marker hooks
for every packet; it runs under ``Simulator(slow_path=True)``
(``REPRO_SLOW_PATH=1``) and is what the differential tests hold the
other one to.  The *specialised* hop does less per packet with the same
outcome: an idle port puts a packet straight onto the wire when
:meth:`Scheduler.pass_through
<repro.scheduling.base.Scheduler.pass_through>` applies the pair's state
change in closed form, the marker is called as :meth:`Marker.hop_hooks
<repro.ecn.base.Marker.hop_hooks>` says, and a completion that leaves
the port empty does not ask the scheduler for a next packet.

Observation
-----------

:meth:`Port.observe` is the one way to watch a port, and an observed
port keeps its hop.  An observer defines any of ``admitted(port,
queue_index, packet)`` — called by both hops after the enqueue-side
marker decision and before the dequeue-side one, a passed-through packet
included — ``departed(…)`` at wire completion, ``dropped(…)`` at the
drop site and ``port_reset(port)`` at the end of :meth:`Port.reset`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple, TYPE_CHECKING

from ..ecn.base import Marker, NullMarker
from ..scheduling.base import Scheduler
from ..sim.engine import Simulator
from .link import Link
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .sharedbuf import PortBufferAccount

__all__ = ["Port"]


class Port:
    """One output interface of a host or switch."""

    __slots__ = (
        "sim",
        "link",
        "scheduler",
        #: Queue count, copied off the scheduler (fixed for its
        #: lifetime): the switch classifier reads it once per hop.
        "n_queues",
        "marker",
        "name",
        "buffer_packets",
        "pool",
        "_packet_count",
        "_byte_count",
        "_queue_packets",
        "_queue_bytes",
        "busy",
        # In-service record, read by the invariant checks: the queue
        # index of the packet on the wire (None between packets) and the
        # ``Simulator.clears`` generation its completion was scheduled in.
        "_in_service",
        "_tx_clears",
        "drops",
        "queue_drops",
        "tx_packets",
        "tx_bytes",
        "last_departure",
        # Observers (see observe) and, per observation point, the bound
        # methods of those that define it (empty: no call).
        "_observers",
        "_admitted",
        "_departed",
        "_dropped",
        "_reset_hooks",
        "_bandwidth",
        # The hop bound at construction (module docstring): the
        # reference hop or not, idle pass-through allowed, the marker's
        # enqueue hook (None: no call) and whether it needs
        # ``on_dequeue`` for every packet (else never).
        "_general",
        "_idle_pass",
        "_marker_on_enqueue",
        "_dequeue_hook",
        # Reset generation for fire-and-forget completions (see
        # _transmission_done_ff): bumped by reset() so in-flight
        # completions scheduled before the reset are ignored.
        "_tx_epoch",
    )

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        scheduler: Scheduler,
        marker: Optional[Marker] = None,
        buffer_packets: Optional[int] = None,
        name: str = "port",
        pool: Optional["PortBufferAccount"] = None,
    ):
        self.sim = sim
        self.link = link
        self.scheduler = scheduler
        self.n_queues = scheduler.n_queues
        self.marker = marker if marker is not None else NullMarker()
        self.name = name
        #: Drop-tail capacity in packets (None = unbounded).
        self.buffer_packets = buffer_packets
        #: This port's account with the switch's shared buffer, if its
        #: buffer draws from one (None: a private buffer only).
        self.pool = pool
        self._packet_count = 0
        self._byte_count = 0
        self._queue_packets = [0] * scheduler.n_queues
        self._queue_bytes = [0] * scheduler.n_queues
        self.busy = False
        self._in_service: Optional[int] = None
        self._tx_clears = sim.clears
        self.drops = 0
        self.queue_drops = [0] * scheduler.n_queues
        self.tx_packets = 0
        self.tx_bytes = 0
        #: Simulation time of the most recent transmission completion,
        #: anchored at construction time: a port built mid-run has not
        #: been idle since t=0, and idle-detecting markers (MQ-ECN's
        #: T_round reset) must not treat "never transmitted" as "long
        #: idle" on the first packet.
        self.last_departure = sim._now
        self._observers = self._admitted = self._departed = ()
        self._dropped = self._reset_hooks = ()
        #: The link's bit rate (fixed for its lifetime): serialization
        #: time is ``Link.tx_time``, computed inline.
        self._bandwidth = link.bandwidth
        self._tx_epoch = 0
        self.marker.attach(self)
        marker = self.marker
        self._general = sim.slow_path
        if self._general:
            self._idle_pass = False
            self._marker_on_enqueue = marker.on_enqueue
            self._dequeue_hook = True
        else:
            self._idle_pass = (type(scheduler).pass_through
                               is not Scheduler.pass_through)
            self._marker_on_enqueue, self._dequeue_hook = marker.hop_hooks()

    # -- occupancy views (what markers read) -----------------------------

    @property
    def packet_count(self) -> int:
        """Instantaneous port buffer occupancy in packets."""
        return self._packet_count

    @property
    def byte_count(self) -> int:
        """Instantaneous port buffer occupancy in bytes."""
        return self._byte_count

    def queue_packet_count(self, queue_index: int) -> int:
        """Instantaneous occupancy of one queue in packets."""
        return self._queue_packets[queue_index]

    def queue_byte_count(self, queue_index: int) -> int:
        """Instantaneous occupancy of one queue in bytes."""
        return self._queue_bytes[queue_index]

    @property
    def weights(self) -> List[float]:
        """Scheduler weight vector (markers use it for per-queue shares)."""
        return self.scheduler.weights

    # -- observation ------------------------------------------------------

    @property
    def observers(self) -> Tuple[Any, ...]:
        """The observers registered with :meth:`observe`, in order."""
        return self._observers

    def observe(self, observer: Any) -> None:
        """Call ``observer`` at the observation points (module docstring)
        whose methods it defines; the others cost it nothing."""
        self._bind(self._observers + (observer,))

    def unobserve(self, observer: Any) -> None:
        """Stop calling ``observer`` (a no-op if it was not observing)."""
        self._bind(tuple(o for o in self._observers if o is not observer))

    def _bind(self, observers: Tuple[Any, ...]) -> None:
        self._observers = observers
        self._admitted, self._departed, self._dropped, self._reset_hooks = (
            tuple(getattr(o, point) for o in observers if hasattr(o, point))
            for point in ("admitted", "departed", "dropped", "port_reset"))

    # -- datapath ---------------------------------------------------------

    def enqueue(self, packet: Packet, queue_index: int = 0) -> bool:
        """Admit a packet into ``queue_index``.

        Returns False when the packet was dropped (buffer full).
        """
        count = self._packet_count
        if self.buffer_packets is not None and count >= self.buffer_packets:
            return self._drop(queue_index, packet)
        pool = self.pool
        if pool is not None and not pool.admits():
            # ``admits`` is a pure query; the pool's rejection statistic
            # is charged here, at the drop site, so speculative callers
            # (metrics probes, invariant checks) cannot corrupt it.  A port
            # whose own buffer was already full never reaches this point
            # — buffer drops are not pool rejections.
            pool.rejections += 1
            return self._drop(queue_index, packet)
        size = packet.size
        self._packet_count = count + 1
        self._byte_count += size
        self._queue_packets[queue_index] += 1
        self._queue_bytes[queue_index] += size
        if pool is not None:
            pool.add(size)
        sim = self.sim
        now = sim._now
        packet.enqueue_time = now
        if (not self.busy and self._idle_pass
                and self.scheduler.pass_through(queue_index, packet)):
            # Exact idle pass-through: the scheduler has applied the
            # state change of its enqueue/dequeue pair, so the packet
            # goes onto the wire here, seen by the marker at both points
            # with the occupancy the pair would have shown it.  Observers
            # see it in service; ``busy`` is set after the dequeue-side
            # marker, which may read it.
            hook = self._marker_on_enqueue
            if hook is not None:
                hook(self, queue_index, packet)
            self._in_service = queue_index
            self._tx_clears = sim.clears
            admitted = self._admitted
            if admitted:
                for observer in admitted:
                    observer(self, queue_index, packet)
            if self._dequeue_hook:
                self.marker.on_dequeue(self, queue_index, packet)
            self.busy = True
            sim.at_ff(
                now + size * 8.0 / self._bandwidth,
                self._transmission_done_ff, queue_index, packet,
                self._tx_epoch,
            )
            return True
        self.scheduler.enqueue(queue_index, packet)
        hook = self._marker_on_enqueue
        if hook is not None:
            hook(self, queue_index, packet)
        admitted = self._admitted
        if admitted:
            for observer in admitted:
                observer(self, queue_index, packet)
        if not self.busy:
            self._transmit_next()
        return True

    def _drop(self, queue_index: int, packet: Packet) -> bool:
        self.drops += 1
        self.queue_drops[queue_index] += 1
        for observer in self._dropped:
            observer(self, queue_index, packet)
        return False

    def _transmit_next(self) -> None:
        item = self.scheduler.dequeue()
        if item is None:
            self.busy = False
            return
        queue_index, packet = item
        # Dequeue marking sees occupancy that still includes this packet.
        if self._dequeue_hook:
            self.marker.on_dequeue(self, queue_index, packet)
        self.busy = True
        sim = self.sim
        self._in_service = queue_index
        self._tx_clears = sim.clears
        # The completion rides the engine's fire-and-forget lane: no
        # Event object per transmission.  reset() cannot cancel such a
        # completion, so it carries the current reset epoch and
        # _transmission_done_ff discards stale generations.
        sim.at_ff(
            sim._now + packet.size * 8.0 / self._bandwidth,
            self._transmission_done_ff, queue_index, packet, self._tx_epoch,
        )

    def _transmission_done_ff(self, queue_index: int, packet: Packet,
                              epoch: int) -> None:
        # Stale generation: the port was reset while this completion was
        # in flight (the fire-and-forget lane has no cancel).
        if epoch != self._tx_epoch:
            return
        # The packet has left the buffer only now that it is on the wire.
        self._in_service = None
        sim = self.sim
        now = sim._now
        size = packet.size
        self._packet_count -= 1
        self._byte_count -= size
        self._queue_packets[queue_index] -= 1
        self._queue_bytes[queue_index] -= size
        pool = self.pool
        if pool is not None:
            pool.remove(size)
        link = self.link
        if (link.up and link.fault is None and not self._general
                and link._dst_receive is not None):
            # Link.deliver when it has nothing to drop, inline: count
            # the delivery and start propagation.
            link.packets_delivered += 1
            sim.at_ff(now + link.delay, link._arrive, packet, link._epoch)
        else:
            link.deliver(packet)
        self.tx_packets += 1
        self.tx_bytes += size
        self.last_departure = now
        departed = self._departed
        if departed:
            for observer in departed:
                observer(self, queue_index, packet)
        if self._packet_count or self._general:
            self._transmit_next()
        else:
            # Nothing left to send: the scheduler is empty and its
            # dequeue would only say so.
            self.busy = False

    # -- teardown ---------------------------------------------------------

    def reset(self) -> None:
        """Return the port to an empty, idle state.

        Required after :meth:`repro.sim.engine.Simulator.clear` (or any
        teardown that discards pending events): a cleared simulator drops
        the in-flight transmission completion, which would otherwise
        leave ``busy`` latched forever — the port would never transmit
        again — and leak buffer/pool occupancy.  ``reset`` invalidates the
        in-flight transmission, discards all queued packets, zeroes the
        occupancy accounting, credits any shared pool, clears the
        marker's per-port state (:meth:`~repro.ecn.base.Marker.on_reset`)
        and re-anchors ``last_departure`` at the current time so idle
        detection does not compare against a pre-reset departure; then
        it calls the observers' ``port_reset``.  Cumulative statistics
        (``tx_packets``, ``drops``, …) are preserved.
        """
        # Invalidate any completion still in flight.
        self._tx_epoch += 1
        self.busy = False
        self._in_service = None
        if self.pool is not None and self._packet_count:
            # Through the account's credit API — never by mutating its
            # counters directly — so the negative-accounting guards and
            # the shared totals see the bulk return like any other
            # credit.
            self.pool.credit(self._packet_count, self._byte_count)
        # Occupancy counters are zeroed before the scheduler drops its
        # packets so the scheduler's ``clear_observer`` never sees the
        # port counting packets the scheduler already discarded.
        self._packet_count = 0
        self._byte_count = 0
        self._queue_packets = [0] * self.n_queues
        self._queue_bytes = [0] * self.n_queues
        self.scheduler.clear()
        self.marker.on_reset(self)
        self.last_departure = self.sim.now
        for observer in self._reset_hooks:
            observer(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Port({self.name}, {self._packet_count}pkts/"
            f"{self.scheduler.n_queues}q, busy={self.busy})"
        )
