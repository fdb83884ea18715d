"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import weakref

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_executes_at_right_time(self, sim):
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_at_absolute_time(self, sim):
        seen = []
        sim.at(2.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.0]

    def test_args_are_passed(self, sim):
        seen = []
        sim.schedule(0.1, seen.append, 42)
        sim.run()
        assert seen == [42]

    def test_events_fire_in_time_order(self, sim):
        seen = []
        sim.schedule(3.0, seen.append, "c")
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(2.0, seen.append, "b")
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self, sim):
        seen = []
        for tag in range(10):
            sim.at(1.0, seen.append, tag)
        sim.run()
        assert seen == list(range(10))

    def test_scheduling_in_the_past_raises(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(0.5, lambda: None)

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1e-9, lambda: None)

    def test_events_can_schedule_events(self, sim):
        seen = []

        def first():
            seen.append(sim.now)
            sim.schedule(1.0, second)

        def second():
            seen.append(sim.now)

        sim.schedule(1.0, first)
        sim.run()
        assert seen == [1.0, 2.0]


class TestRun:
    def test_run_until_stops_before_later_events(self, sim):
        seen = []
        sim.at(1.0, seen.append, "early")
        sim.at(5.0, seen.append, "late")
        executed = sim.run(until=2.0)
        assert executed == 1
        assert seen == ["early"]
        assert sim.now == 2.0

    def test_run_until_advances_clock_even_when_idle(self, sim):
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_later_events_survive_partial_run(self, sim):
        seen = []
        sim.at(5.0, seen.append, "late")
        sim.run(until=2.0)
        sim.run()
        assert seen == ["late"]

    def test_max_events(self, sim):
        seen = []
        for i in range(5):
            sim.at(float(i + 1), seen.append, i)
        sim.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_step(self, sim):
        seen = []
        sim.at(1.0, seen.append, "x")
        assert sim.step() is True
        assert sim.step() is False
        assert seen == ["x"]

    def test_events_processed_counter(self, sim):
        for i in range(4):
            sim.at(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_reentrant_run_raises(self, sim):
        def evil():
            sim.run()

        sim.schedule(0.1, evil)
        with pytest.raises(SimulationError):
            sim.run()

    def test_clear_drops_pending(self, sim):
        seen = []
        sim.at(1.0, seen.append, "x")
        sim.clear()
        sim.run()
        assert seen == []

    def test_idle_windows_then_near_schedule_fires_on_time(self):
        """Regression: windowed idling must not strand later schedules.

        With a timer pending, consecutive idle ``run(until)`` windows
        used to drag the wheel's routing anchor ahead of the clock; an
        event then scheduled between the clock and the stale anchor was
        skipped by the cursor clamp and only resurfaced a full wheel lap
        (~4 ms) later, firing with its original timestamp and regressing
        the clock.  ``run()`` re-anchors to the clock on exit.
        """
        sim = Simulator(slow_path=False)
        fired = []
        sim.at(9.3e-5, fired.append, "timer")
        for k in range(1, 17):  # idle-step to t=80us in 5us windows
            sim.run(until=k * 5e-6)
        assert sim.now == 8e-5
        assert fired == []
        sim.at(8.17e-5, lambda: fired.append(("near", sim.now)))
        sim.run(until=8.5e-5)
        assert fired == [("near", 8.17e-5)]
        sim.run(until=9.5e-5)
        assert fired == [("near", 8.17e-5), "timer"]

    def test_clock_never_regresses_across_windows(self):
        sim = Simulator(slow_path=False)
        times = []
        sim.at(2e-6, lambda: times.append(sim.now))
        sim.at(4.2e-5, lambda: times.append(sim.now))
        seen = []
        for k in range(1, 30):
            sim.run(until=k * 5e-6)
            seen.append(sim.now)
        assert times == [2e-6, 4.2e-5]
        assert seen == sorted(seen)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        seen = []
        event = sim.schedule(1.0, seen.append, "x")
        event.cancel()
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_cancel_one_of_many(self, sim):
        seen = []
        keep = sim.schedule(1.0, seen.append, "keep")
        drop = sim.schedule(1.0, seen.append, "drop")
        drop.cancel()
        sim.run()
        assert seen == ["keep"]
        assert not keep.cancelled

    def test_cancelled_events_not_counted(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        sim.run()
        assert sim.events_processed == 0


class TestOrderingProperty:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=100))
    def test_execution_order_is_sorted(self, delays):
        sim = Simulator()
        seen = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: seen.append(d))
        sim.run()
        assert seen == sorted(seen)
        assert len(seen) == len(delays)

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                        allow_nan=False),
                              st.booleans()),
                    min_size=1, max_size=50))
    def test_cancelled_subset_never_fires(self, entries):
        sim = Simulator()
        fired = []
        events = []
        for index, (delay, cancel) in enumerate(entries):
            events.append(
                (sim.schedule(delay, lambda i=index: fired.append(i)), cancel)
            )
        for event, cancel in events:
            if cancel:
                event.cancel()
        sim.run()
        cancelled = {i for i, (_e, c) in enumerate(zip(events, entries))
                     if entries[i][1]}
        assert cancelled.isdisjoint(fired)
        assert set(fired) == set(range(len(entries))) - cancelled


class TestHeapCompaction:
    def test_cancelled_pending_counts_live_cancellations(self, sim):
        events = [sim.schedule(1.0, lambda: None) for _ in range(10)]
        for event in events[:4]:
            event.cancel()
        assert sim.cancelled_pending == 4
        sim.run()
        assert sim.cancelled_pending == 0

    def test_cancel_idempotence_counts_once(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.cancelled_pending == 1

    def test_compaction_bounds_heap_under_cancel_churn(self, sim):
        # The restart-heavy transport pattern: every entry is replaced by
        # a cancelled ghost.  Without compaction the heap would hold all
        # 10k dead entries until t=1.0.
        sim.schedule(10.0, lambda: None)
        for _ in range(10_000):
            sim.schedule(1.0, lambda: None).cancel()
        assert sim.compactions > 0
        assert sim.pending_events < 200
        # Dead entries never exceed the compaction floor: below 64 heap
        # entries compaction is deliberately suppressed (re-heapify costs
        # more than it saves), so the debt is bounded by the floor itself.
        assert sim.cancelled_pending <= max(sim.pending_events // 2, 64)

    def test_compaction_preserves_execution_order(self, sim):
        seen = []
        events = []
        for index in range(500):
            delay = 1.0 + (index % 37) * 0.01
            events.append((sim.schedule(delay, seen.append, index), index))
        for event, index in events:
            if index % 2:
                event.cancel()
        expected = [index for event, index in
                    sorted(((e, i) for e, i in events if not e.cancelled),
                           key=lambda pair: (pair[0].time, pair[0].seq))]
        sim.run()
        assert seen == expected

    def test_pending_events_shrinks_on_compaction(self, sim):
        keepers = [sim.schedule(2.0, lambda: None) for _ in range(10)]
        victims = [sim.schedule(1.0, lambda: None) for _ in range(200)]
        before = sim.pending_events
        for event in victims:
            event.cancel()
        # Dead entries dominated: the engine compacted without running.
        assert sim.pending_events < before
        assert sim.pending_events >= len(keepers)

    def test_clear_resets_cancellation_accounting(self, sim):
        events = [sim.schedule(1.0, lambda: None) for _ in range(10)]
        events[0].cancel()
        sim.clear()
        assert sim.cancelled_pending == 0
        # Cancelling an event that was dropped by clear() must not skew
        # the accounting of the (now empty) heap.
        events[1].cancel()
        assert sim.cancelled_pending == 0


class TestEventFreeList:
    """Handles stay sound.  The engine no longer recycles Event objects
    (a free list measured neutral and was deleted); these pin what any
    recycling scheme would have to respect."""

    def test_held_handles_are_never_recycled(self, sim):
        held = sim.schedule(0.1, lambda: None)
        sim.run()
        fresh = sim.schedule(0.1, lambda: None)
        assert fresh is not held

    def test_stale_cancel_after_execution_is_harmless(self, sim):
        seen = []
        stale = sim.schedule(0.1, seen.append, "first")
        sim.run()
        stale.cancel()  # fired long ago; must not poison future events
        sim.schedule(0.1, seen.append, "second")
        sim.run()
        assert seen == ["first", "second"]
        assert sim.cancelled_pending == 0

    def test_recycled_events_fire_correctly(self, sim):
        seen = []
        for index in range(100):
            sim.schedule(0.01 * (index + 1), seen.append, index)
        sim.run()
        for index in range(100):
            sim.schedule(0.01 * (index + 1), seen.append, 100 + index)
        sim.run()
        assert seen == list(range(200))


class TestTwoTierEngine:
    """The timing-wheel tier for short-horizon events (heap for the rest)."""

    def test_short_horizon_rides_the_wheel(self, sim):
        event = sim.schedule(1e-4, lambda: None)
        assert event.in_wheel and not event.in_heap
        assert sim.wheel_pending == 1

    def test_long_horizon_rides_the_heap(self, sim):
        event = sim.schedule(1.0, lambda: None)
        assert event.in_heap and not event.in_wheel
        assert sim.wheel_pending == 0

    def test_tier_counters_reconcile_with_events_processed(self, sim):
        for index in range(50):
            sim.schedule(1e-6 * index, lambda: None)   # wheel
            sim.schedule(0.5 + 1e-3 * index, lambda: None)  # heap
        sim.run()
        assert sim.wheel_events_processed == 50
        assert sim.heap_events_processed == 50
        assert (sim.wheel_events_processed + sim.heap_events_processed
                == sim.events_processed)

    def test_cross_tier_ordering_is_global(self, sim):
        order = []
        sim.at(1.0, order.append, "heap-late")
        sim.schedule(2e-3, order.append, "wheel")
        sim.at(1e-3, order.append, "wheel-early")
        # A heap event whose callback schedules into the wheel window:
        # the nested event (0.999 + 5e-4) must preempt the 1.0 heap entry.
        sim.at(0.999, lambda: sim.schedule(5e-4, order.append, "nested"))
        sim.run()
        assert order == ["wheel-early", "wheel", "nested", "heap-late"]

    def test_scheduled_property_tracks_both_tiers(self, sim):
        near = sim.schedule(1e-4, lambda: None)
        far = sim.schedule(1.0, lambda: None)
        assert near.scheduled and near.in_wheel and not near.in_heap
        assert far.scheduled and far.in_heap and not far.in_wheel
        sim.run()
        assert not near.scheduled
        assert not far.scheduled

    def test_wheel_cancellation_counts_and_compacts(self, sim):
        victims = [sim.schedule(1e-3, lambda: None) for _ in range(200)]
        keepers = [sim.schedule(2e-3, lambda: None) for _ in range(10)]
        before = sim.pending_events
        for event in victims:
            event.cancel()
        # Dead wheel entries dominated: the engine compacted them away.
        assert sim.pending_events < before
        assert sim.pending_events >= len(keepers)
        executed = sim.run()
        assert executed == len(keepers)

    def test_clear_drops_wheel_entries(self, sim):
        event = sim.schedule(1e-3, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.clear()
        assert sim.pending_events == 0
        assert sim.wheel_pending == 0
        assert not event.scheduled
        event.cancel()  # must not corrupt accounting of the empty wheel
        assert sim.cancelled_pending == 0

    def test_run_until_stops_mid_wheel(self, sim):
        fired = []
        sim.schedule(1e-4, fired.append, "early")
        sim.schedule(3e-3, fired.append, "late")
        sim.run(until=1e-3)
        assert fired == ["early"]
        sim.run()
        assert fired == ["early", "late"]

    def test_ties_fire_in_schedule_order_across_tiers(self, sim):
        order = []
        # Same timestamp, scheduled alternately into wheel-window times.
        for index in range(6):
            sim.at(1e-3, order.append, index)
        sim.run()
        assert order == list(range(6))


class TestBucketDrain:
    """What a callback may do to the wheel bucket being drained: one
    list iterator walks it, fired slots are overwritten with a marker,
    and the fired prefix is cut off when the bucket ends."""

    def test_compaction_skips_the_bucket_under_the_drain(self, sim):
        seen = []
        ahead = []
        later = []

        def trigger():
            seen.append("trigger")
            size, compactions = len(sim._active), sim.compactions
            for event in ahead + later:
                event.cancel()
            # Compaction ran and left the drained bucket's entries,
            # dead ones included, where the iterator expects them.
            seen.append((sim.compactions > compactions,
                         len(sim._active) == size))

        sim.at(1.1e-6, trigger)
        ahead.extend(sim.at(1.2e-6, seen.append, "never")
                     for _ in range(40))
        for index in range(5):
            sim.at(1.3e-6 + 1e-8 * index, seen.append, index)
        later.extend(sim.at(3e-6, seen.append, "never") for _ in range(60))
        sim.run()
        assert seen == ["trigger", (True, True), 0, 1, 2, 3, 4]
        assert sim.events_processed == 6
        assert sim.wheel_events_processed == 6
        assert sim.pending_events == 0
        assert sim.cancelled_pending == 0

    def test_a_fired_entry_is_released_before_its_bucket_ends(self, sim):
        # Held to the bucket's end, fired entries keep their packets
        # alive and the collector runs more often on large buckets.
        class Payload:
            pass

        payload = Payload()
        released = weakref.ref(payload)
        seen = []
        sim.at_ff(1.1e-6, lambda _payload: None, payload)
        sim.at_ff(1.2e-6, lambda: seen.append(released() is None))
        del payload
        sim.run()
        assert seen == [True]

    def test_clear_from_a_callback_ends_the_drain(self, sim):
        seen = []

        def clearing():
            seen.append("clear")
            sim.clear()
            # Scheduled after the clear, into the bucket just drained.
            sim.at(1.5e-6, seen.append, "after")

        sim.at(1.1e-6, seen.append, "before")
        sim.at(1.2e-6, clearing)
        sim.at(1.3e-6, seen.append, "dropped")
        sim.at(2e-6, seen.append, "dropped-later")
        sim.at(1.0, seen.append, "dropped-heap")
        executed = sim.run()
        assert seen == ["before", "clear", "after"]
        assert executed == 3
        assert sim.events_processed == 3
        assert sim.pending_events == 0
        sim.schedule(1e-6, seen.append, "next")
        assert sim.run() == 1
        assert seen[-1] == "next"

    def test_no_rewind_during_a_drain(self, sim):
        seen = []
        buckets = []

        def spawn(depth):
            buckets.append((sim._cursor, id(sim._active)))
            seen.append((sim.now, depth))
            if depth:
                # Delay 0 and a delay inside the same 1 us bucket: both
                # are insorted behind the consumed entries.
                sim.schedule(0.0, spawn, depth - 1)
                sim.schedule(1e-8, spawn, depth - 1)

        sim.at(2.1e-6, spawn, 4)
        sim.at(2.2e-6, seen.append, "tail")
        sim.run()
        # One bucket, one drain: the cursor never moved back under it.
        assert len(buckets) == 31
        assert len(set(buckets)) == 1
        times = [item[0] for item in seen[:-1]]
        assert times == sorted(times)
        assert seen[-1] == "tail"

    def test_exception_consumes_the_raising_entry(self, sim):
        seen = []

        def boom():
            raise RuntimeError("boom")

        sim.at(1.1e-6, seen.append, "a")
        sim.at(1.2e-6, boom)
        sim.at(1.3e-6, seen.append, "b")
        with pytest.raises(RuntimeError):
            sim.run()
        sim.run()
        assert seen == ["a", "b"]
        assert sim.pending_events == 0


class TestSlowPath:
    """REPRO_SLOW_PATH: the pre-wheel heap-only loop must stay available
    and produce bit-identical firing order."""

    def test_constructor_flag(self):
        slow = Simulator(slow_path=True)
        assert slow.slow_path
        fast = Simulator(slow_path=False)
        assert not fast.slow_path

    def test_slow_path_routes_everything_to_the_heap(self):
        slow = Simulator(slow_path=True)
        event = slow.schedule(1e-6, lambda: None)
        assert event.in_heap and not event.in_wheel
        assert slow.wheel_pending == 0

    def test_env_flag_controls_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_PATH", "1")
        assert Simulator().slow_path
        monkeypatch.setenv("REPRO_SLOW_PATH", "0")
        assert not Simulator().slow_path
        monkeypatch.delenv("REPRO_SLOW_PATH")
        assert not Simulator().slow_path

    def test_differential_firing_order(self):
        """A mixed recursive workload fires identically on both paths."""

        def exercise(sim):
            order = []

            def spawn(label, depth):
                order.append((label, sim.now))
                if depth:
                    sim.schedule(1e-6 * (depth % 7), spawn,
                                 f"{label}.a", depth - 1)
                    sim.schedule(4.096e-3, spawn, f"{label}.b", 0)
                    # Into the bucket being drained: same instant, and
                    # a fire-and-forget entry later in it.
                    sim.schedule(0.0, spawn, f"{label}.z", 0)
                    sim.at_ff(sim.now + 3e-7, spawn, f"{label}.f", 0)
                    if depth % 3 == 0:
                        victim = sim.schedule(1e-3, spawn, "never", 0)
                        victim.cancel()

            for index in range(8):
                sim.schedule(1e-5 * index, spawn, f"root{index}", 4)
            sim.at(0.5, order.append, ("far", 0.5))
            # Stop inside a bucket, then resume.
            sim.run(until=2.02e-5)
            sim.run()
            return order, sim.events_processed

        fast_order, fast_count = exercise(Simulator(slow_path=False))
        slow_order, slow_count = exercise(Simulator(slow_path=True))
        assert fast_order == slow_order
        assert fast_count == slow_count


class TestFireAndForget:
    """at_ff: wheel entries with no Event object (uncancellable)."""

    def test_fires_at_the_right_time(self, sim):
        seen = []
        sim.at_ff(1e-4, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1e-4]

    def test_returns_nothing(self, sim):
        assert sim.at_ff(1e-4, lambda: None) is None

    def test_interleaves_deterministically_with_events(self, sim):
        order = []
        sim.at(1e-3, order.append, "event")
        sim.at_ff(1e-3, order.append, "ff")     # same time, later seq
        sim.at_ff(5e-4, order.append, "early-ff")
        sim.run()
        assert order == ["early-ff", "event", "ff"]

    def test_counts_in_pending_and_processed(self, sim):
        sim.at_ff(1e-4, lambda: None)
        assert sim.pending_events == 1
        sim.run()
        assert sim.events_processed == 1
        assert sim.wheel_events_processed == 1

    def test_far_future_falls_back_to_heap(self, sim):
        sim.at_ff(1.0, lambda: None)
        assert sim.pending_events == 1
        assert sim.wheel_pending == 0
        sim.run()
        assert sim.heap_events_processed == 1

    def test_past_raises(self, sim):
        sim.schedule(1e-3, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at_ff(0.0, lambda: None)

    def test_slow_path_degrades_to_plain_at(self):
        slow = Simulator(slow_path=True)
        seen = []
        slow.at_ff(1e-4, seen.append, "x")
        assert slow.pending_events == 1
        assert slow.wheel_pending == 0
        slow.run()
        assert seen == ["x"]

    def test_clear_drops_ff_entries(self, sim):
        sim.at_ff(1e-4, lambda: None)
        sim.at(2e-4, lambda: None)
        sim.clear()
        assert sim.pending_events == 0
        assert sim.run() == 0

    def test_survives_wheel_compaction(self, sim):
        seen = []
        sim.at_ff(1.5e-3, seen.append, "kept")
        victims = [sim.schedule(1e-3, lambda: None) for _ in range(200)]
        for event in victims:
            event.cancel()
        # Compaction ran (cancelled entries dominated); the ff entry and
        # its accounting must survive intact.
        sim.run()
        assert seen == ["kept"]
        assert sim.pending_events == 0

    def test_until_boundary_preserves_ff_entries(self, sim):
        seen = []
        sim.at_ff(2e-3, seen.append, "late")
        sim.run(until=1e-3)
        assert seen == []
        sim.run()
        assert seen == ["late"]
