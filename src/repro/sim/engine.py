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
timers (RTOs, periodic sampling tasks) still use the heap.  Wheel buckets
store plain ``(time, seq, event)`` tuples so sorting and the wheel/heap
merge compare at C speed instead of through ``Event.__lt__``, which
profiling shows is the dominant heap cost (~7 comparisons per event).

Determinism is preserved exactly: the run loop merges the wheel and the
heap by global ``(time, seq)`` order, so the firing order is identical to
a single-heap engine.  ``REPRO_SLOW_PATH=1`` (or
``Simulator(slow_path=True)``) disables the wheel and runs the original
heap-only loop — differential tests assert byte-identical experiment
exports between the two paths.

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

Executed and cancelled events whose handles are no longer referenced
anywhere are recycled through a small free-list, so steady-state
schedule/fire churn does not allocate.
"""

from __future__ import annotations

import heapq
import math
import os
import sys
from bisect import insort
from typing import Any, Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .audit import FabricAuditor
    from .profile import SimProfiler

__all__ = ["Event", "Simulator", "SimulationError", "slow_path_default"]

#: Compact only when the tier is at least this large — small tiers are
#: cheap to scan linearly and not worth the churn.
_COMPACT_MIN_HEAP = 64

#: Upper bound on recycled Event objects kept around.
_FREELIST_MAX = 4096

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
    the module docstring.)
    """

    __slots__ = (
        "time", "seq", "callback", "args", "cancelled",
        "in_heap", "in_wheel", "_sim",
    )

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.in_heap = False
        self.in_wheel = False
        self._sim = sim

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
        sim = self._sim
        if sim is not None:
            if self.in_heap:
                sim._note_cancelled()
            elif self.in_wheel:
                sim._note_cancelled_wheel()

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

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
        "_cancelled", "_compactions", "_freelist", "profiler", "auditor",
        "_slow", "_wheel", "_cursor", "_active", "_active_pos",
        "_now_bucket", "_wheel_count", "_wheel_cancelled",
        "_wheel_scheduled", "_heap_scheduled",
        "_wheel_processed", "_heap_processed", "barrier_hook", "clears",
    )

    def __init__(self, slow_path: Optional[bool] = None) -> None:
        self._heap: list[Event] = []
        self._now = 0.0
        self._seq = 0
        self._events_processed = 0
        self._running = False
        self._cancelled = 0
        self._compactions = 0
        self._freelist: list[Event] = []
        self._slow = slow_path_default() if slow_path is None else bool(slow_path)
        # Timing wheel state (fast path only).  Buckets hold
        # (time, seq, event) tuples; ``_cursor`` is the absolute index of
        # the bucket currently being drained (``_active``, consumed up to
        # ``_active_pos`` with drained slots set to None), ``_now_bucket``
        # anchors the wheel/heap routing window at the clock.
        self._wheel: Optional[list[list]] = (
            None if self._slow else [[] for _ in range(_WHEEL_SLOTS)]
        )
        self._cursor = 0
        self._active: Optional[list] = None
        self._active_pos = 0
        self._now_bucket = 0
        self._wheel_count = 0
        self._wheel_cancelled = 0
        self._wheel_scheduled = 0
        self._heap_scheduled = 0
        self._wheel_processed = 0
        self._heap_processed = 0
        #: Optional :class:`~repro.sim.profile.SimProfiler`; hot-path
        #: components check it for None before reporting counters.
        self.profiler: Optional["SimProfiler"] = None
        #: Optional :class:`~repro.sim.audit.FabricAuditor`; installed
        #: by its constructor.  When None (the default) no audit hook
        #: exists anywhere on the datapath.
        self.auditor: Optional["FabricAuditor"] = None
        #: Optional shard-synchronisation callback: called with the LBTS
        #: bound after every :meth:`run_until_lbts` window completes.
        self.barrier_hook: Optional[Callable[[float], None]] = None
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
        """True when the timing-wheel tier is disabled."""
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
    def wheel_scheduled(self) -> int:
        """Events routed into the timing wheel by :meth:`at`."""
        return self._wheel_scheduled

    @property
    def heap_scheduled(self) -> int:
        """Events routed into the heap by :meth:`at`."""
        return self._heap_scheduled

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

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} seconds in the past")
        return self.at(self._now + delay, callback, *args)

    def at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        self._seq += 1
        seq = self._seq
        freelist = self._freelist
        if freelist:
            event = freelist.pop()
            event.time = time
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, seq, callback, args, self)
        if not self._slow:
            bucket_index = int(time * _INV_TICK)
            # The routing window is anchored at the *clock* bucket, not
            # the cursor: every live wheel entry then provably lies
            # within [now_bucket, now_bucket + _WHEEL_SLOTS), so two live
            # entries can never collide a lap apart in the same slot.
            if bucket_index - self._now_bucket < _WHEEL_SLOTS:
                event.in_wheel = True
                self._wheel_count += 1
                self._wheel_scheduled += 1
                cursor = self._cursor
                if bucket_index < cursor:
                    # A heap event fired while the cursor sat at a later
                    # wheel bucket, and its callback scheduled something
                    # nearer: rewind the cursor (the invariant is only
                    # cursor <= earliest nonempty bucket) and deactivate
                    # the active bucket so it is re-sorted on arrival.
                    active = self._active
                    if active is not None:
                        if self._active_pos:
                            # Strip consumed (None) slots so a future
                            # re-sort never compares None against tuples.
                            del active[: self._active_pos]
                            self._active_pos = 0
                        self._active = None
                    self._cursor = bucket_index
                    self._wheel[bucket_index & _WHEEL_MASK].append(
                        (time, seq, event)
                    )
                elif bucket_index == cursor and self._active is not None:
                    # Inserting into the bucket currently being drained:
                    # keep its tail sorted so the merge stays exact.
                    insort(self._active, (time, seq, event), self._active_pos)
                else:
                    self._wheel[bucket_index & _WHEEL_MASK].append(
                        (time, seq, event)
                    )
                return event
        event.in_heap = True
        self._heap_scheduled += 1
        heapq.heappush(self._heap, event)
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
        deterministically with Event-backed ones, and the slow path
        (``REPRO_SLOW_PATH=1``) degrades to a plain :meth:`at` call.
        """
        if self._slow:
            self.at(time, callback, *args)
            return
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        bucket_index = int(time * _INV_TICK)
        if bucket_index - self._now_bucket >= _WHEEL_SLOTS:
            # Beyond the wheel window: fall back to an Event in the heap.
            self.at(time, callback, *args)
            return
        self._seq += 1
        entry = (time, self._seq, callback, args)
        self._wheel_count += 1
        self._wheel_scheduled += 1
        cursor = self._cursor
        if bucket_index < cursor:
            active = self._active
            if active is not None:
                if self._active_pos:
                    del active[: self._active_pos]
                    self._active_pos = 0
                self._active = None
            self._cursor = bucket_index
            self._wheel[bucket_index & _WHEEL_MASK].append(entry)
        elif bucket_index == cursor and self._active is not None:
            insort(self._active, entry, self._active_pos)
        else:
            self._wheel[bucket_index & _WHEEL_MASK].append(entry)

    def _note_cancelled(self) -> None:
        """One live heap entry was cancelled; compact when they dominate."""
        self._cancelled += 1
        if (
            self._cancelled * 2 > len(self._heap)
            and len(self._heap) >= _COMPACT_MIN_HEAP
        ):
            self._compact()

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
        for event in heap:
            if event.cancelled:
                event.in_heap = False
            else:
                live.append(event)
        heap[:] = live
        heapq.heapify(heap)
        self._cancelled = 0
        self._compactions += 1

    def _compact_wheel(self) -> None:
        """Filter cancelled entries out of every wheel bucket.

        Buckets are mutated in place (slice assignment) so the active
        bucket alias held by a running :meth:`run` loop stays valid; the
        active bucket is only filtered past ``_active_pos`` so consumed
        (None) slots are untouched.
        """
        active = self._active
        removed = 0
        for bucket in self._wheel:
            if not bucket:
                continue
            # Fire-and-forget 4-tuples (no Event at index 2) are never
            # cancelled and always survive compaction.
            if bucket is active:
                pos = self._active_pos
                tail = bucket[pos:]
                live = [entry for entry in tail
                        if len(entry) == 4 or not entry[2].cancelled]
                if len(live) != len(tail):
                    for entry in tail:
                        if len(entry) == 3 and entry[2].cancelled:
                            entry[2].in_wheel = False
                    bucket[pos:] = live
                    removed += len(tail) - len(live)
            else:
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

    # Free-list discipline: recycling an Event someone still holds a
    # handle to would let a stale ``cancel()`` kill an unrelated future
    # event, so the run loop pools an object only when its local variable
    # is the sole remaining reference (sys.getrefcount == local binding +
    # getrefcount argument = 2).  Wheel entries drop their (time, seq,
    # event) tuple before the check by overwriting the bucket slot with
    # None.

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None,
            exclusive: bool = False) -> int:
        """Run events until both tiers drain, ``until`` is reached, or
        ``max_events`` have executed.

        Returns the number of events executed by this call.  When ``until``
        is given the clock is advanced to exactly ``until`` on return even
        if the engine drained earlier, so back-to-back ``run`` calls
        observe a consistent timeline.

        ``until`` is normally *inclusive* (an event scheduled exactly at
        ``until`` fires).  With ``exclusive=True`` the window is
        half-open ``[now, until)``: events at exactly ``until`` stay
        pending and fire on the next call.  This is the conservative
        shard-synchronisation contract — a shard may only execute events
        strictly before the fabric's lower bound on incoming timestamps
        (LBTS), because a cross-shard arrival can land exactly *at* it.
        The hot loops are untouched: the bound is simply tightened to
        the largest float below ``until`` before dispatch, and the clock
        is still clamped to the true ``until`` on return.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly from within an event")
        bound = until
        if exclusive and until is not None:
            bound = math.nextafter(until, -math.inf)
        self._running = True
        try:
            if self._slow:
                executed = self._run_slow(bound, max_events)
            else:
                executed = self._run_fast(bound, max_events)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        if not self._slow:
            # Re-anchor the routing bucket to the clock.  While an
            # ``until``-bounded run idles, the cursor hunts forward to
            # the next nonempty bucket and drags ``_now_bucket`` with it
            # past the clock; if that stale anchor persisted, an event
            # scheduled between the clock and the anchor (a cross-shard
            # injection, say) would be skipped by the cursor clamp and
            # only resurface a full wheel lap later, with its original
            # timestamp regressing the clock.  Re-anchoring restores the
            # invariant the clamp relies on: no live wheel entry below
            # ``_now_bucket``.
            self._now_bucket = int(self._now * _INV_TICK)
        return executed

    def run_until_lbts(self, lbts: float, inclusive: bool = False) -> int:
        """One conservative synchronisation window: run ``[now, lbts)``.

        The exclusive upper bound makes the window safe under the
        null-message protocol (see :meth:`run`); ``inclusive=True`` is
        for a final window that must consume events at the deadline
        itself.  After the window completes the optional
        :attr:`barrier_hook` is invoked with the bound, so shard runners
        and profilers can observe synchronisation rounds without a hook
        in the event loop.
        """
        executed = self.run(until=lbts, exclusive=not inclusive)
        hook = self.barrier_hook
        if hook is not None:
            hook(lbts)
        return executed

    def _run_slow(self, until: Optional[float], max_events: Optional[int]) -> int:
        """The original heap-only event loop (``REPRO_SLOW_PATH=1``)."""
        heap = self._heap
        freelist = self._freelist
        heappop = heapq.heappop
        getrefcount = sys.getrefcount
        executed = 0
        while heap:
            event = heap[0]
            if event.cancelled:
                heappop(heap)
                event.in_heap = False
                self._cancelled -= 1
                # Recycle only provably-unshared handles (see above).
                if len(freelist) < _FREELIST_MAX and getrefcount(event) == 2:
                    freelist.append(event)
                continue
            if until is not None and event.time > until:
                break
            heappop(heap)
            event.in_heap = False
            self._now = event.time
            event.callback(*event.args)
            executed += 1
            self._events_processed += 1
            self._heap_processed += 1
            if len(freelist) < _FREELIST_MAX and getrefcount(event) == 2:
                event.callback = _noop
                event.args = ()
                freelist.append(event)
            if max_events is not None and executed >= max_events:
                break
        return executed

    def _run_fast(self, until: Optional[float], max_events: Optional[int]) -> int:
        """Merge-ordered two-tier loop: exact (time, seq) firing order.

        The loop works in *bucket quanta*.  In fast mode :meth:`at`
        routes every event within the wheel window to the wheel, so a
        heap entry pushed during a bucket's drain is always at least a
        full window (~4 ms) ahead and can never preempt the bucket.  One
        heap-top comparison per bucket therefore suffices: when the heap
        top lies at or beyond the bucket's end the whole bucket is
        drained in a tight loop with no per-event merge bookkeeping.
        Pre-existing heap entries *can* come due inside the current
        bucket (they were scheduled before the window reached them);
        those interleave through the exact single-event merge path.
        """
        heap = self._heap
        wheel = self._wheel
        freelist = self._freelist
        heappop = heapq.heappop
        getrefcount = sys.getrefcount
        until_f = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        executed = 0
        while True:
            cursor = self._cursor
            active = self._active
            pos = self._active_pos
            # -- establish the earliest live wheel entry -----------------
            wheel_time = None
            wheel_seq = 0
            while True:
                if active is not None:
                    n = len(active)
                    while pos < n:
                        entry = active[pos]
                        if len(entry) == 3:
                            event = entry[2]
                            if event.cancelled:
                                active[pos] = None
                                entry = None
                                pos += 1
                                self._wheel_count -= 1
                                self._wheel_cancelled -= 1
                                event.in_wheel = False
                                if (
                                    len(freelist) < _FREELIST_MAX
                                    and getrefcount(event) == 2
                                ):
                                    freelist.append(event)
                                continue
                        wheel_time = entry[0]
                        wheel_seq = entry[1]
                        entry = None
                        break
                    if wheel_time is not None:
                        break
                    # Bucket fully drained (only None slots remain):
                    # return it to its empty reusable state.
                    active.clear()
                    active = None
                    pos = 0
                    cursor += 1
                if self._wheel_count == 0:
                    break
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
                pos = 0
            self._cursor = cursor
            self._active = active
            self._active_pos = pos
            # -- establish the earliest live heap entry ------------------
            # Single binding throughout so the refcount==2 recycle check
            # below still sees an unshared handle.
            heap_event = None
            while heap:
                heap_event = heap[0]
                if heap_event.cancelled:
                    heappop(heap)
                    heap_event.in_heap = False
                    self._cancelled -= 1
                    if (
                        len(freelist) < _FREELIST_MAX
                        and getrefcount(heap_event) == 2
                    ):
                        freelist.append(heap_event)
                    heap_event = None
                    continue
                break
            if wheel_time is None and heap_event is None:
                break
            if wheel_time is not None and (
                heap_event is None
                or heap_event.time >= (cursor + 1) * _WHEEL_TICK
            ):
                # -- bucket drain: nothing can preempt this bucket -------
                heap_event = None
                self._now_bucket = cursor
                limit = budget - executed
                done = 0
                drained = 0
                stop = False
                # Same-timestamp runs are the common case inside a bucket
                # (a burst enqueued back-to-back shares one clock value),
                # so the clock write is skipped while the time repeats.
                last_time = self._now
                while pos < len(active):
                    entry = active[pos]
                    if len(entry) == 4:
                        # Fire-and-forget entry: no Event bookkeeping.
                        event_time = entry[0]
                        if event_time > until_f:
                            stop = True
                            break
                        active[pos] = None
                        pos += 1
                        drained += 1
                        if event_time != last_time:
                            self._now = event_time
                            last_time = event_time
                        self._active_pos = pos
                        entry[2](*entry[3])
                        entry = None
                        done += 1
                        if done >= limit:
                            stop = True
                            break
                        if self._active is not active:
                            break
                        continue
                    event = entry[2]
                    if event.cancelled:
                        active[pos] = None
                        entry = None
                        pos += 1
                        drained += 1
                        self._wheel_cancelled -= 1
                        event.in_wheel = False
                        if (
                            len(freelist) < _FREELIST_MAX
                            and getrefcount(event) == 2
                        ):
                            freelist.append(event)
                        continue
                    event_time = entry[0]
                    entry = None
                    if event_time > until_f:
                        stop = True
                        break
                    active[pos] = None
                    pos += 1
                    drained += 1
                    event.in_wheel = False
                    if event_time != last_time:
                        self._now = event_time
                        last_time = event_time
                    self._active_pos = pos
                    event.callback(*event.args)
                    done += 1
                    if len(freelist) < _FREELIST_MAX and getrefcount(event) == 2:
                        event.callback = _noop
                        event.args = ()
                        freelist.append(event)
                    if done >= limit:
                        stop = True
                        break
                    if self._active is not active:
                        # The callback rewound the wheel (scheduled into
                        # an earlier bucket) or cleared the engine:
                        # re-establish from shared state.
                        break
                self._wheel_count -= drained
                self._events_processed += done
                self._wheel_processed += done
                executed += done
                if self._active is active:
                    self._active_pos = pos
                if stop:
                    break
            elif wheel_time is not None and (
                wheel_time < heap_event.time
                or (wheel_time == heap_event.time and wheel_seq < heap_event.seq)
            ):
                # -- single wheel event: a pre-existing heap entry is due
                # inside this bucket and may interleave -------------------
                if wheel_time > until_f:
                    break
                entry = active[pos]
                active[pos] = None
                pos += 1
                self._wheel_count -= 1
                self._now = wheel_time
                self._now_bucket = cursor
                self._active_pos = pos
                if len(entry) == 4:
                    callback = entry[2]
                    cb_args = entry[3]
                    entry = None
                    callback(*cb_args)
                else:
                    event = entry[2]
                    entry = None
                    event.in_wheel = False
                    event.callback(*event.args)
                    if len(freelist) < _FREELIST_MAX and getrefcount(event) == 2:
                        event.callback = _noop
                        event.args = ()
                        freelist.append(event)
                executed += 1
                self._events_processed += 1
                self._wheel_processed += 1
                if executed >= budget:
                    break
            else:
                # -- heap event fires ------------------------------------
                if heap_event.time > until_f:
                    break
                heappop(heap)
                event = heap_event
                heap_event = None
                event.in_heap = False
                self._now = event.time
                now_bucket = int(event.time * _INV_TICK)
                if now_bucket > self._now_bucket:
                    self._now_bucket = now_bucket
                event.callback(*event.args)
                executed += 1
                self._events_processed += 1
                self._heap_processed += 1
                if len(freelist) < _FREELIST_MAX and getrefcount(event) == 2:
                    event.callback = _noop
                    event.args = ()
                    freelist.append(event)
                if executed >= budget:
                    break
        return executed

    def step(self) -> bool:
        """Execute the single next pending event.  Returns False if none."""
        return self.run(max_events=1) == 1

    def clear(self) -> None:
        """Drop all pending events (the clock is left untouched).

        Careful at scenario teardown: any component holding scheduled
        state — most notably a :class:`~repro.net.port.Port` whose
        ``busy`` flag is set while its transmission-completion event is
        in this heap — is left inconsistent by a bare ``clear()``.  Call
        :meth:`repro.net.port.Port.reset` on every port afterwards (or
        instead) to return the datapath to a consistent idle state.
        """
        for event in self._heap:
            event.in_heap = False
        self._heap.clear()
        self._cancelled = 0
        wheel = self._wheel
        if wheel is not None:
            if self._wheel_count:
                for bucket in wheel:
                    if bucket:
                        for entry in bucket:
                            if entry is not None and len(entry) == 3:
                                entry[2].in_wheel = False
                        bucket.clear()
            elif self._active is not None:
                # An exhausted active bucket may still hold consumed
                # (None) slots; reset it so a future sort never sees them.
                self._active.clear()
            self._active = None
            self._active_pos = 0
            self._wheel_count = 0
            self._wheel_cancelled = 0
        self.clears += 1
