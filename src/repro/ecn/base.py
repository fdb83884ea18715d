"""ECN marker interface.

A :class:`Marker` is attached to one switch output port.  The port invokes
:meth:`Marker.on_enqueue` right after a packet is admitted (occupancy
counters already include it) and :meth:`Marker.on_dequeue` right before a
packet starts transmission (occupancy counters still include it).  The
marker sets the CE codepoint on ECN-capable packets when its scheme's
condition holds at its configured :class:`MarkPoint`.

The *mark point* matters: marking at dequeue delivers congestion
information one queueing delay earlier than marking at enqueue (paper
§II-C, Figs. 4/5 and 11/12).  Schemes whose signal is only observable at
dequeue (TCN's sojourn time) cannot use the enqueue point at all — their
``supported_points`` declares that.

Runtime-tunable thresholds
--------------------------

Every scheme's tunable parameters are first-class runtime state,
exposed uniformly through :meth:`Marker.thresholds` /
:meth:`Marker.set_thresholds`.  ``set_thresholds`` *stages* validated
changes; they take effect at the next packet boundary (the next
``on_enqueue``/``on_dequeue`` hook), never between one packet's enqueue
decision and its dequeue decision.  Each committed batch bumps
``threshold_epoch``, which is how the fabric auditor distinguishes a
legal boundary commit from a raw mid-packet attribute mutation (the
``marker-threshold-boundary`` rule).  ``Port.reset`` restores the
spec'd construction-time baseline through :meth:`Marker.on_reset`, so
controller-tuned ports re-enter a sweep iteration exactly as built.
"""

from __future__ import annotations

import enum
from typing import (TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Optional,
                    Tuple)

from ..net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from ..net.port import Port

__all__ = ["MarkPoint", "Marker", "NullMarker"]


class MarkPoint(enum.Enum):
    """Where in the port pipeline the CE decision is evaluated."""

    ENQUEUE = "enqueue"
    DEQUEUE = "dequeue"


class Marker:
    """Base class: evaluates :meth:`decide` at the configured mark point."""

    #: Mark points the scheme can support (subclasses narrow this).
    supported_points: FrozenSet[MarkPoint] = frozenset(
        {MarkPoint.ENQUEUE, MarkPoint.DEQUEUE}
    )

    #: Attribute names of the scheme's runtime-tunable threshold
    #: parameters (subclasses declare; schemes with derived threshold
    #: state override :meth:`thresholds` / :meth:`_apply_thresholds`).
    _THRESHOLD_FIELDS: Tuple[str, ...] = ()

    def __init__(self, mark_point: MarkPoint = MarkPoint.ENQUEUE):
        if mark_point not in self.supported_points:
            raise ValueError(
                f"{type(self).__name__} does not support marking at {mark_point.value}"
            )
        self.mark_point = mark_point
        self.packets_marked = 0
        self.packets_seen = 0
        self._attached_port: Optional["Port"] = None
        #: Bumped once per committed ``set_thresholds`` batch (and per
        #: reset restore).  The fabric auditor keys its boundary rule on
        #: it: values that changed at an unchanged epoch were mutated
        #: behind the staging surface.
        self.threshold_epoch = 0
        self._pending_thresholds: Optional[Dict[str, Any]] = None
        #: What ``Port.reset`` restores: captured by the first
        #: ``set_thresholds``; until then the current values are it.
        self._baseline_thresholds: Optional[Dict[str, Any]] = None

    def attach(self, port: "Port") -> None:
        """Called once when the owning port is constructed.

        A marker instance belongs to exactly one port: its state (link
        capacity, round observers, phantom queues) is per-port, so
        re-attaching to a second port would silently corrupt the first
        port's marking.  Re-attaching raises :class:`ValueError`; shared
        state across ports goes through an explicit object instead (see
        :class:`~repro.ecn.service_pool.BufferPool`).

        Schemes that need port context (link capacity, scheduler round
        notifications) extend this — always calling ``super().attach``.
        """
        if self._attached_port is not None and self._attached_port is not port:
            raise ValueError(
                f"{type(self).__name__} is already attached to "
                f"{self._attached_port.name!r}; markers are per-port — "
                "construct one instance per port"
            )
        self._attached_port = port

    # -- runtime-tunable thresholds ---------------------------------------

    def thresholds(self) -> Dict[str, Any]:
        """Current values of the scheme's tunable threshold parameters.

        A fresh plain dict (safe to snapshot); keys are stable per
        scheme and documented in ``docs/API.md``.
        """
        return {name: getattr(self, name) for name in self._THRESHOLD_FIELDS}

    def set_thresholds(self, **changes: Any) -> None:
        """Stage new threshold values, applied at the next packet boundary.

        Validates eagerly (unknown keys and scheme-specific range checks
        raise :class:`ValueError` immediately, at the controller's call
        site) but *applies lazily*: the staged batch is committed by the
        next ``on_enqueue``/``on_dequeue`` hook, before that packet's
        decision, so a decision never sees a threshold change mid-packet.
        Successive calls between two packets merge into one commit.
        """
        if not changes:
            return
        current = self.thresholds()
        unknown = [key for key in changes if key not in current]
        if unknown:
            raise ValueError(
                f"{type(self).__name__} has no tunable threshold(s) "
                f"{sorted(unknown)!r}; it exposes {sorted(current)!r}")
        merged = dict(current)
        if self._pending_thresholds:
            merged.update(self._pending_thresholds)
        merged.update(changes)
        self._validate_thresholds(merged)
        if self._baseline_thresholds is None:
            self._baseline_thresholds = current
        pending = self._pending_thresholds
        if pending is None:
            pending = {}
            self._pending_thresholds = pending
        pending.update(changes)

    def _validate_thresholds(self, merged: Dict[str, Any]) -> None:
        """Scheme-specific range checks over the *merged* full view.

        Subclasses override with the same constraints their constructor
        enforces; the base accepts anything.
        """

    def _apply_thresholds(self, changes: Dict[str, Any]) -> None:
        """Install already-validated values (derived state refresh hook)."""
        for name, value in changes.items():
            setattr(self, name, value)

    def _commit_thresholds(self) -> None:
        changes = self._pending_thresholds
        self._pending_thresholds = None
        self._apply_thresholds(changes)  # type: ignore[arg-type]
        self.threshold_epoch += 1

    def on_reset(self, port: "Port") -> None:
        """Called by :meth:`repro.net.port.Port.reset`.

        Stateful schemes (MQ-ECN round estimates, phantom queues, RED
        averages, PMSB occupancy EWMAs) override this — always calling
        ``super().on_reset`` — to discard their per-port dynamic state
        so a reused port behaves like a freshly built one; cumulative
        statistics (``packets_marked``, ``packets_seen``) are preserved,
        mirroring the port's own counters.  The base implementation
        restores controller-set thresholds to the construction-time
        baseline (discarding any staged batch) and bumps the epoch so
        the restore registers as a legal boundary change.
        """
        self._pending_thresholds = None
        baseline = self._baseline_thresholds or self.thresholds()
        if baseline:
            self._apply_thresholds(dict(baseline))
            self.threshold_epoch += 1

    @property
    def mark_fraction(self) -> float:
        """Fraction of ECN-capable packets this marker has marked."""
        if self.packets_seen == 0:
            return 0.0
        return self.packets_marked / self.packets_seen

    def on_enqueue(self, port: "Port", queue_index: int, packet: Packet) -> None:
        """Port hook: packet admitted, counters include it."""
        if self._pending_thresholds is not None:
            self._commit_thresholds()
        if self.mark_point is MarkPoint.ENQUEUE:
            self._evaluate(port, queue_index, packet)

    def on_dequeue(self, port: "Port", queue_index: int, packet: Packet) -> None:
        """Port hook: packet leaving, counters still include it."""
        if self._pending_thresholds is not None:
            self._commit_thresholds()
        if self.mark_point is MarkPoint.DEQUEUE:
            self._evaluate(port, queue_index, packet)

    def decide(self, port: "Port", queue_index: int, packet: Packet) -> bool:
        """Return True when the scheme says this packet should carry CE."""
        raise NotImplementedError

    def hop_hooks(self) -> Tuple[Optional[Callable[..., None]], bool]:
        """How the port's specialised hop calls this marker.

        Returns ``(enqueue_hook, dequeue_every_packet)``: the callable
        run on every admitted packet (None: no call), and whether
        :meth:`on_dequeue` runs for every departing packet — otherwise
        the port calls it only while a ``set_thresholds`` batch is
        staged, the one thing the base hook does for an enqueue-side
        marker.  A subclass overriding either hook differently from
        what this infers overrides this too.
        """
        every_dequeue = (self.mark_point is MarkPoint.DEQUEUE
                         or type(self).on_dequeue is not Marker.on_dequeue)
        return self.on_enqueue, every_dequeue

    def _evaluate(self, port: "Port", queue_index: int, packet: Packet) -> None:
        if not packet.ect:
            return
        self.packets_seen += 1
        if self.decide(port, queue_index, packet):
            packet.ce = True
            self.packets_marked += 1


class NullMarker(Marker):
    """Never marks — drop-tail behaviour (host NICs, non-ECN baselines).

    The port hooks are overridden as true no-ops: host NIC ports sit on
    the datapath's hottest path and a marker that never marks has no
    reason to pay the evaluate/decide dispatch per packet.  As a
    consequence ``packets_seen`` stays 0 (``mark_fraction`` is 0.0 either
    way).
    """

    def on_enqueue(self, port: "Port", queue_index: int, packet: Packet) -> None:
        return

    def on_dequeue(self, port: "Port", queue_index: int, packet: Packet) -> None:
        return

    def decide(self, port: "Port", queue_index: int, packet: Packet) -> bool:
        return False

    def hop_hooks(self) -> Tuple[Optional[Callable[..., None]], bool]:
        # No thresholds to stage, so no call at either point.
        return None, False
