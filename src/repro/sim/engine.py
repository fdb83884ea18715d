"""Discrete-event simulation engine.

The engine is a two-tier calendar queue.  Every event is a plain callback
scheduled at an absolute simulation time.  Ties are broken by a
monotonically increasing sequence number, which makes runs fully
deterministic: two events scheduled for the same instant always fire in
the order they were scheduled.

The engine deliberately avoids coroutine/process abstractions.  Network
simulations at packet granularity schedule millions of very small events;
plain callbacks keep the hot loop tight and the call stacks shallow.

Timing-wheel tier
-----------------

Packet workloads schedule almost exclusively *short-horizon* events:
link serialization/propagation completions, paced transmissions and
delayed ACKs all land microseconds-to-a-millisecond ahead of ``now``.
Those go into a bucketed timing wheel (:data:`_WHEEL_SLOTS` buckets of
:data:`_WHEEL_TICK` seconds, ~4 ms of horizon); only sparse long-horizon
timers (RTOs, periodic sampling tasks) still use the heap.  Both tiers
hold plain tuples — ``(time, seq, event)`` for an :class:`Event`,
``(time, seq, callback, args)`` for a fire-and-forget entry — so
sorting, heap sifts and the wheel/heap merge compare at C speed (a
sequence number is unique, so a comparison never reaches the third
element).

Determinism is preserved exactly: the run loop merges the wheel and the
heap by global ``(time, seq)`` order, so the firing order is identical to
a single-heap engine.  ``REPRO_SLOW_PATH=1`` (or
``Simulator(slow_path=True)``) disables the wheel and runs the original
heap-only loop; ports and DCTCP endpoints built on such a simulator take
their general paths too (:mod:`repro.net.port`) — differential tests
assert byte-identical experiment exports between the two modes.

Cancellation and compaction
---------------------------

Cancelling an event does not remove it from its tier (a heap delete is
O(n)); the entry is skipped when popped.  Transport workloads cancel
aggressively — every ACK pushes back the retransmission timer — so dead
entries would otherwise accumulate.  The engine counts live cancellations
per tier and **compacts** (filters the dead entries out; re-heapifies for
the heap tier) whenever more than half of a tier is cancelled.  Two
consequences callers can observe:

- :attr:`Simulator.pending_events` may *shrink* spontaneously after a
  burst of cancellations — it counts entries in both tiers, cancelled
  ones included, and a compaction drops the dead ones all at once.
- :attr:`Simulator.cancelled_pending` (dead entries currently held in
  either tier) and :attr:`Simulator.compactions` expose the mechanism
  for benchmarks and the profiler.

Cost per event
--------------

A scheduled event costs one Python call besides its callback:
:meth:`Simulator.schedule`, :meth:`Simulator.at` and
:meth:`Simulator.at_ff` each insert directly, and an :class:`Event` is
built without a Python ``__init__`` frame.  The run loop drains a wheel
bucket with one list iterator and settles its counters once per bucket
(see :meth:`Simulator._run_fast`); a heap push or sift calls no Python
method, and cancelling an event settles the heap's books in
:meth:`Event.cancel` itself.  ``tests/sim/test_engine_cost.py`` pins
the call counts.
"""

from __future__ import annotations

import heapq
import os
from bisect import insort
from typing import Any, Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .audit import FabricAuditor
    from .profile import SimProfiler

__all__ = ["Event", "Simulator", "SimulationError", "slow_path_default"]

#: Compact only when the tier is at least this large — small tiers are
#: cheap to scan linearly and not worth the churn.
_COMPACT_MIN_HEAP = 64

#: Wheel bucket width in seconds.  1 µs resolves every serialization
#: time the topologies produce (40 B @ 40 Gbps = 8 ns is sub-tick, but
#: bucket *ordering* is by exact (time, seq), so resolution only affects
#: which events share a bucket, never their firing order).
_WHEEL_TICK = 1e-6
_INV_TICK = 1.0 / _WHEEL_TICK

#: Number of wheel buckets (power of two so slot = bucket & mask).  With
#: a 1 µs tick the wheel spans ~4.1 ms: delayed ACKs (1 ms) land in the
#: wheel, min RTO (10 ms) and periodic tasks go to the heap.
_WHEEL_SLOTS = 4096
_WHEEL_MASK = _WHEEL_SLOTS - 1

_INF = float("inf")

#: Builds an :class:`Event` in C, with no ``__init__`` frame.
_new = object.__new__

#: What the drain leaves in a fired wheel slot.  It sorts before every
#: entry, so an insort into the bucket being drained needs no lower
#: bound, and overwriting the slot releases the entry (and the packet it
#: carries) at once rather than when the bucket ends.
_FIRED = (-_INF,)


def slow_path_default() -> bool:
    """True when ``REPRO_SLOW_PATH`` requests the pre-optimization path.

    Read at :class:`Simulator` construction, so tests can flip the
    environment variable between simulator instances.
    """
    value = os.environ.get("REPRO_SLOW_PATH", "")
    return value.strip().lower() not in ("", "0", "false", "no")


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulator (e.g. scheduling in the past)."""


class Event:
    """A handle for a scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.at`.  The only public operation is :meth:`cancel`;
    cancelled events stay in their tier but are skipped when reached,
    which is much cheaper than a delete.  (The owning simulator counts
    cancellations and compacts a tier when dead entries dominate — see
    the module docstring.)  The simulator sets every slot when it
    builds one; there is no public constructor.
    """

    __slots__ = (
        "time", "seq", "callback", "args", "cancelled",
        "in_heap", "in_wheel", "_sim",
    )

    @property
    def scheduled(self) -> bool:
        """True while the event is pending in the engine (either tier).

        Use this rather than ``in_heap``: a short-horizon event lives in
        the timing wheel, not the heap.
        """
        return self.in_heap or self.in_wheel

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references eagerly: a cancelled retransmission timer may
        # otherwise pin a large packet object in the heap for a long time.
        self.callback = _noop
        self.args = ()
        if self.in_heap:
            # One live heap entry is dead; compact when they dominate.
            sim = self._sim
            sim._cancelled = dead = sim._cancelled + 1
            size = len(sim._heap)
            if dead * 2 > size and size >= _COMPACT_MIN_HEAP:
                sim._compact()
        elif self.in_wheel:
            self._sim._note_cancelled_wheel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.9f}, seq={self.seq}, {state})"


def _noop(*_args: Any) -> None:
    return None


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.schedule(1e-6, port.try_transmit)
        sim.run(until=0.1)

    All times are in **seconds**.  The clock only moves forward; scheduling
    an event in the past raises :class:`SimulationError`.

    ``slow_path=True`` (default: the ``REPRO_SLOW_PATH`` environment
    variable) disables the timing-wheel tier and runs the heap-only loop;
    event firing order — and therefore every simulation result — is
    identical on both paths.
    """

    __slots__ = (
        "_heap", "_now", "_seq", "_events_processed", "_running",
        "_cancelled", "_compactions", "profiler", "auditor",
        "_slow", "_wheel", "_cursor", "_active",
        "_now_bucket", "_wheel_count", "_wheel_cancelled",
        "_wheel_processed", "_heap_processed", "clears",
    )

    def __init__(self, slow_path: Optional[bool] = None) -> None:
        self._heap: list[tuple] = []
        self._now = 0.0
        self._seq = 0
        self._events_processed = 0
        self._running = False
        self._cancelled = 0
        self._compactions = 0
        self._slow = slow_path_default() if slow_path is None else bool(slow_path)
        # Timing wheel state (fast path only).  Buckets hold
        # (time, seq, event) tuples; ``_cursor`` is the absolute index of
        # the bucket currently being drained (``_active``), and
        # ``_now_bucket`` anchors the wheel/heap routing window at the
        # clock.  The slow path pins the anchor at -inf, so every event
        # routes to the heap.
        self._wheel: Optional[list[list]] = (
            None if self._slow else [[] for _ in range(_WHEEL_SLOTS)]
        )
        self._cursor = 0
        self._active: Optional[list] = None
        self._now_bucket = -_INF if self._slow else 0
        self._wheel_count = 0
        self._wheel_cancelled = 0
        self._wheel_processed = 0
        self._heap_processed = 0
        #: Optional :class:`~repro.sim.profile.SimProfiler`; hot-path
        #: components check it for None before reporting counters.
        self.profiler: Optional["SimProfiler"] = None
        #: Optional :class:`~repro.sim.audit.FabricAuditor`; installed
        #: by its constructor.  When None (the default) no audit hook
        #: exists anywhere on the datapath.
        self.auditor: Optional["FabricAuditor"] = None
        #: :meth:`clear` calls so far.  A component that scheduled work
        #: records the value at the time; a different value later means
        #: that work was dropped (the auditor's engine-hygiene check).
        self.clears = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def slow_path(self) -> bool:
        """True when the timing-wheel tier is disabled (ports and DCTCP
        endpoints built on this simulator then take their general
        paths too)."""
        return self._slow

    @property
    def events_processed(self) -> int:
        """Number of (non-cancelled) events executed so far."""
        return self._events_processed

    @property
    def wheel_events_processed(self) -> int:
        """Events executed out of the timing-wheel tier."""
        return self._wheel_processed

    @property
    def heap_events_processed(self) -> int:
        """Events executed out of the heap tier."""
        return self._heap_processed

    @property
    def wheel_pending(self) -> int:
        """Entries currently in the wheel (including cancelled ones)."""
        return self._wheel_count

    @property
    def pending_events(self) -> int:
        """Number of events still pending (including cancelled ones).

        Counts both tiers.  May shrink without any event firing: a
        compaction drops all cancelled entries of a tier at once (see
        the module docstring).
        """
        return len(self._heap) + self._wheel_count

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying engine slots (both tiers)."""
        return self._cancelled + self._wheel_cancelled

    @property
    def compactions(self) -> int:
        """Number of tier compactions performed so far."""
        return self._compactions

    # schedule(), at() and at_ff() share one insertion body, written out
    # in each so that scheduling costs a single Python call.  Routing:
    # a time inside the window [now_bucket, now_bucket + _WHEEL_SLOTS)
    # goes to the wheel; the window is anchored at the *clock* bucket,
    # not the cursor, so every live wheel entry lies inside it and two
    # live entries never collide a lap apart in one slot.  Inside the
    # window an entry for the bucket being drained is insorted (the
    # drain's fired slots hold _FIRED, which sorts first, and its time
    # is >= now); one for an earlier bucket — only possible after a heap
    # event fired while the cursor sat at a later bucket — rewinds the
    # cursor and deactivates the active bucket, to be re-sorted on
    # arrival; any other is appended to its slot.

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} seconds in the past")
        time = self._now + delay
        self._seq = seq = self._seq + 1
        event = _new(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event._sim = self
        bucket_index = int(time * _INV_TICK)
        if bucket_index - self._now_bucket < _WHEEL_SLOTS:
            event.in_heap = False
            event.in_wheel = True
            self._wheel_count += 1
            if bucket_index == self._cursor and self._active is not None:
                insort(self._active, (time, seq, event))
            else:
                if bucket_index < self._cursor:
                    self._active = None
                    self._cursor = bucket_index
                self._wheel[bucket_index & _WHEEL_MASK].append(
                    (time, seq, event))
            return event
        event.in_wheel = False
        event.in_heap = True
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        self._seq = seq = self._seq + 1
        event = _new(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event._sim = self
        bucket_index = int(time * _INV_TICK)
        if bucket_index - self._now_bucket < _WHEEL_SLOTS:
            event.in_heap = False
            event.in_wheel = True
            self._wheel_count += 1
            if bucket_index == self._cursor and self._active is not None:
                insort(self._active, (time, seq, event))
            else:
                if bucket_index < self._cursor:
                    self._active = None
                    self._cursor = bucket_index
                self._wheel[bucket_index & _WHEEL_MASK].append(
                    (time, seq, event))
            return event
        event.in_wheel = False
        event.in_heap = True
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def at_ff(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget scheduling: ``callback(*args)`` at ``time``.

        No :class:`Event` handle is created — the call cannot be
        cancelled and returns nothing.  Intended for the datapath's
        highest-volume timers that are never cancelled individually
        (link serialization/propagation completions); they are dropped
        wholesale by :meth:`clear` like any other pending entry.

        Firing order is identical to :meth:`at`: a sequence number is
        allocated the same way, so fire-and-forget entries interleave
        deterministically with Event-backed ones; beyond the wheel's
        window (always, on the slow path ``REPRO_SLOW_PATH=1``) the same
        4-tuple goes to the heap.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        self._seq = seq = self._seq + 1
        bucket_index = int(time * _INV_TICK)
        if bucket_index - self._now_bucket >= _WHEEL_SLOTS:
            # Beyond the wheel window (always, on the slow path).
            heapq.heappush(self._heap, (time, seq, callback, args))
            return
        self._wheel_count += 1
        if bucket_index == self._cursor and self._active is not None:
            insort(self._active, (time, seq, callback, args))
        else:
            if bucket_index < self._cursor:
                self._active = None
                self._cursor = bucket_index
            self._wheel[bucket_index & _WHEEL_MASK].append(
                (time, seq, callback, args))

    def _note_cancelled_wheel(self) -> None:
        """One live wheel entry was cancelled; compact when they dominate."""
        self._wheel_cancelled += 1
        if (
            self._wheel_cancelled * 2 > self._wheel_count
            and self._wheel_count >= _COMPACT_MIN_HEAP
        ):
            self._compact_wheel()

    def _compact(self) -> None:
        """Filter cancelled entries out of the heap and re-heapify.

        Mutates ``self._heap`` in place so the alias held by a running
        :meth:`run` loop stays valid.
        """
        heap = self._heap
        live = []
        for entry in heap:
            # Fire-and-forget 4-tuples are never cancelled.
            if len(entry) == 3 and entry[2].cancelled:
                entry[2].in_heap = False
            else:
                live.append(entry)
        heap[:] = live
        heapq.heapify(heap)
        self._cancelled = 0
        self._compactions += 1

    def _compact_wheel(self) -> None:
        """Filter cancelled entries out of every wheel bucket but the
        active one.

        The active bucket may be under the run loop's iterator, so it is
        never shifted: its dead entries are dropped when the drain
        reaches them.  Other buckets are filtered in place.
        """
        active = self._active
        removed = 0
        for bucket in self._wheel:
            if not bucket or bucket is active:
                continue
            # Fire-and-forget 4-tuples (no Event at index 2) are never
            # cancelled and always survive compaction.
            live = [entry for entry in bucket
                    if len(entry) == 4 or not entry[2].cancelled]
            dead = len(bucket) - len(live)
            if dead:
                for entry in bucket:
                    if len(entry) == 3 and entry[2].cancelled:
                        entry[2].in_wheel = False
                bucket[:] = live
                removed += dead
        self._wheel_count -= removed
        self._wheel_cancelled -= removed
        self._compactions += 1

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Run events until both tiers drain, ``until`` is reached, or
        ``max_events`` have executed.

        Returns the number of events executed by this call.  When ``until``
        is given the clock is advanced to exactly ``until`` on return even
        if the engine drained earlier, so back-to-back ``run`` calls
        observe a consistent timeline.  An event scheduled exactly at
        ``until`` fires.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly from within an event")
        self._running = True
        try:
            if self._slow:
                executed = self._run_slow(until, max_events)
            else:
                executed = self._run_fast(until, max_events)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        if not self._slow:
            # Re-anchor the routing bucket to the clock.  While an
            # ``until``-bounded run idles, the cursor hunts forward to
            # the next nonempty bucket and drags ``_now_bucket`` with it
            # past the clock; if that stale anchor persisted, an event
            # scheduled between the clock and the anchor would be
            # skipped by the cursor clamp and only resurface a full
            # wheel lap later, with its original timestamp regressing
            # the clock.  Re-anchoring restores the invariant the clamp
            # relies on: no live wheel entry below ``_now_bucket``.
            self._now_bucket = int(self._now * _INV_TICK)
        return executed

    def _run_slow(self, until: Optional[float], max_events: Optional[int]) -> int:
        """The original heap-only event loop (``REPRO_SLOW_PATH=1``)."""
        heap = self._heap
        heappop = heapq.heappop
        executed = 0
        while heap:
            entry = heap[0]
            if len(entry) == 3 and entry[2].cancelled:
                heappop(heap)
                entry[2].in_heap = False
                self._cancelled -= 1
                continue
            if until is not None and entry[0] > until:
                break
            heappop(heap)
            self._now = entry[0]
            if len(entry) == 4:
                entry[2](*entry[3])
            else:
                event = entry[2]
                event.in_heap = False
                event.callback(*event.args)
            executed += 1
            self._events_processed += 1
            self._heap_processed += 1
            if max_events is not None and executed >= max_events:
                break
        return executed

    def _run_fast(self, until: Optional[float], max_events: Optional[int]) -> int:
        """Merge-ordered two-tier loop: exact (time, seq) firing order.

        The loop works in *bucket quanta*.  In fast mode every event
        within the wheel window is routed to the wheel, so a heap entry
        pushed during a bucket's drain is always at least a full window
        (~4 ms) ahead and can never preempt the bucket.  One heap-top
        comparison per bucket therefore suffices: when the heap top lies
        at or beyond the bucket's end the whole bucket is drained by one
        list iterator with no per-event merge bookkeeping.  Pre-existing
        heap entries *can* come due inside the current bucket (they were
        scheduled before the window reached them); those interleave
        through the exact single-event merge path, which ``max_events``
        (``step()`` and tests) always takes.

        The drain overwrites each slot it consumes with ``_FIRED`` and
        settles the counters once per bucket, when it cuts the fired
        prefix off.  That is sound because nothing a callback does can
        shift the entries under the iterator: an insort lands after
        every fired slot (``_FIRED`` sorts first; the new entry's time is
        >= now and its sequence number is fresh), no rewind can happen (a
        callback schedules at >= now, so never before the drained
        bucket), compaction skips the active bucket, and :meth:`clear`
        empties it, which ends the drain.  Outside a drain the active
        bucket holds no fired slots.
        """
        heap = self._heap
        wheel = self._wheel
        heappop = heapq.heappop
        until_f = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        executed = 0
        while True:
            # -- the active bucket: earliest nonempty wheel bucket -------
            active = self._active
            cursor = self._cursor
            if active is not None and not active:
                active = None
                cursor += 1
            if active is None and self._wheel_count:
                # No pending wheel entry lives below the clock bucket
                # (the merge fires earliest-first), so clamp a cursor
                # left stale by an idle wheel before scanning: slots are
                # modular and a lagging cursor would otherwise find a
                # bucket a full lap away and misattribute its index.
                if cursor < self._now_bucket:
                    cursor = self._now_bucket
                bucket = wheel[cursor & _WHEEL_MASK]
                while not bucket:
                    cursor += 1
                    bucket = wheel[cursor & _WHEEL_MASK]
                bucket.sort()
                active = bucket
            self._cursor = cursor
            self._active = active
            # -- the earliest live heap entry ----------------------------
            heap_top = None
            while heap:
                heap_top = heap[0]
                if len(heap_top) == 4 or not heap_top[2].cancelled:
                    break
                heappop(heap)
                heap_top[2].in_heap = False
                self._cancelled -= 1
                heap_top = None
            if active is None:
                if heap_top is None:
                    break
                entry = None
            elif max_events is None and (
                heap_top is None
                or heap_top[0] >= (cursor + 1) * _WHEEL_TICK
            ):
                # -- bucket drain: nothing can preempt this bucket -------
                self._now_bucket = cursor
                drained = dead = 0
                # Same-timestamp runs are the common case inside a bucket
                # (a burst enqueued back-to-back shares one clock value),
                # so the clock write is skipped while the time repeats.
                last_time = self._now
                try:
                    for entry in active:
                        if len(entry) == 4:
                            # Fire-and-forget entry: no Event bookkeeping.
                            event_time = entry[0]
                            if event_time > until_f:
                                break
                            active[drained] = _FIRED
                            drained += 1
                            if event_time != last_time:
                                self._now = last_time = event_time
                            entry[2](*entry[3])
                            continue
                        event = entry[2]
                        if event.cancelled:
                            active[drained] = _FIRED
                            drained += 1
                            dead += 1
                            event.in_wheel = False
                            continue
                        event_time = entry[0]
                        if event_time > until_f:
                            break
                        active[drained] = _FIRED
                        drained += 1
                        event.in_wheel = False
                        if event_time != last_time:
                            self._now = last_time = event_time
                        event.callback(*event.args)
                finally:
                    # Also settles a bucket cut short by an exception:
                    # the raising entry counts as fired.
                    done = drained - dead
                    self._events_processed += done
                    self._wheel_processed += done
                    executed += done
                    if self._active is active:  # else clear() ran
                        self._wheel_count -= drained
                        self._wheel_cancelled -= dead
                        del active[:drained]
                if active:  # stopped at ``until``
                    break
                continue
            else:
                entry = active[0]
                if len(entry) == 3 and entry[2].cancelled:
                    del active[0]
                    entry[2].in_wheel = False
                    self._wheel_count -= 1
                    self._wheel_cancelled -= 1
                    continue
            if heap_top is None or (entry is not None and entry < heap_top):
                # -- single wheel event: a pre-existing heap entry is due
                # inside this bucket and may interleave -------------------
                if entry[0] > until_f:
                    break
                del active[0]
                self._wheel_count -= 1
                self._now = entry[0]
                self._now_bucket = cursor
                if len(entry) == 4:
                    entry[2](*entry[3])
                else:
                    event = entry[2]
                    event.in_wheel = False
                    event.callback(*event.args)
                self._wheel_processed += 1
            else:
                # -- heap entry fires ------------------------------------
                event_time = heap_top[0]
                if event_time > until_f:
                    break
                heappop(heap)
                self._now = event_time
                now_bucket = int(event_time * _INV_TICK)
                if now_bucket > self._now_bucket:
                    self._now_bucket = now_bucket
                if len(heap_top) == 4:
                    heap_top[2](*heap_top[3])
                else:
                    event = heap_top[2]
                    event.in_heap = False
                    event.callback(*event.args)
                self._heap_processed += 1
            executed += 1
            self._events_processed += 1
            if executed >= budget:
                break
        return executed

    def step(self) -> bool:
        """Execute the single next pending event.  Returns False if none."""
        return self.run(max_events=1) == 1

    def clear(self) -> None:
        """Drop all pending events (the clock is left untouched).

        Called from a callback, it also ends the bucket drain under way.

        Careful at scenario teardown: any component holding scheduled
        state — most notably a :class:`~repro.net.port.Port` whose
        ``busy`` flag is set while its transmission-completion event is
        in this heap — is left inconsistent by a bare ``clear()``.  Call
        :meth:`repro.net.port.Port.reset` on every port afterwards (or
        instead) to return the datapath to a consistent idle state.
        """
        for entry in self._heap:
            if len(entry) == 3:
                entry[2].in_heap = False
        self._heap.clear()
        self._cancelled = 0
        wheel = self._wheel
        if wheel is not None:
            if self._wheel_count:
                for bucket in wheel:
                    if bucket:
                        for entry in bucket:
                            if len(entry) == 3:
                                entry[2].in_wheel = False
                        bucket.clear()
            if self._active is not None:
                # Called from a callback, this emptied the bucket being
                # drained, which ends the drain; the slot gets a fresh
                # list for whatever the callback schedules next.
                wheel[self._cursor & _WHEEL_MASK] = []
                self._active = None
            self._wheel_count = 0
            self._wheel_cancelled = 0
        self.clears += 1
