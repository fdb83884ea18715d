"""Restartable timers on top of the event engine.

Transport protocols need timers that are continually pushed back (a
retransmission timer is re-armed by every ACK).  Cancelling and
re-scheduling a raw :class:`~repro.sim.engine.Event` works, but the
pattern is error-prone; :class:`Timer` packages it.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .engine import Event, SimulationError, Simulator

__all__ = ["Timer", "PeriodicTask"]


class Timer:
    """A single-shot, restartable timer.

    ``restart(delay)`` cancels any armed instance and arms a new one.
    The callback fires at most once per arm.

    Pushing the expiry *later* — the overwhelmingly common case: a
    retransmission timer is pushed back by every ACK — performs **no heap
    operation at all**: the existing engine event is kept at its earlier
    time and only the true deadline is updated.  When that stale event
    fires early, the timer silently re-arms for the remaining interval.
    At most one extra no-op event per push-back sequence reaches the heap,
    instead of one cancelled entry per ``restart``.
    """

    __slots__ = ("_sim", "_callback", "_event", "_deadline")

    def __init__(self, sim: Simulator, callback: Callable[[], Any]):
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None
        self._deadline = 0.0

    @property
    def armed(self) -> bool:
        return self._event is not None and not self._event.cancelled

    @property
    def expires_at(self) -> Optional[float]:
        """Absolute expiry time, or None when not armed."""
        if self.armed:
            return self._deadline
        return None

    def restart(self, delay: float) -> None:
        """(Re-)arm the timer ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(
                f"cannot arm a timer {delay} seconds in the past"
            )
        sim = self._sim
        deadline = sim._now + delay
        event = self._event
        if event is not None and not event.cancelled:
            if deadline >= event.time:
                # Push-back: keep the heap entry, move the real deadline.
                self._deadline = deadline
                return
            event.cancel()
        self._deadline = deadline
        self._event = sim.at(deadline, self._fire)

    def cancel(self) -> None:
        """Disarm without firing.  Idempotent."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        if self._deadline > self._sim._now:
            # Stale early wake-up from a lazily pushed-back restart:
            # re-arm for the remainder instead of firing.
            self._event = self._sim.at(self._deadline, self._fire)
            return
        self._event = None
        self._callback()


class PeriodicTask:
    """Runs a callback every ``interval`` seconds until stopped.

    Used by metrics samplers (queue-occupancy traces, throughput bins).
    The first invocation happens ``interval`` seconds after :meth:`start`.
    """

    __slots__ = ("_sim", "_callback", "_interval", "_event", "_stopped")

    def __init__(self, sim: Simulator, interval: float, callback: Callable[[], Any]):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._sim = sim
        self._callback = callback
        self._interval = interval
        self._event: Optional[Event] = None
        self._stopped = True

    @property
    def running(self) -> bool:
        return not self._stopped

    def start(self) -> None:
        if not self._stopped:
            return
        self._stopped = False
        self._event = self._sim.schedule(self._interval, self._tick)

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._event = self._sim.schedule(self._interval, self._tick)
