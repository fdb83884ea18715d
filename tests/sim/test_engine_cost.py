"""Python-level calls per fired event, counted with ``sys.setprofile``.

A noise-free guard for the engine's per-event cost.  A self-rescheduling
chain on the timing wheel (the ``engine_wheel`` benchmark's shape) costs
exactly two Python calls per event: the callback and the scheduling
call.  Scheduling builds its :class:`~repro.sim.engine.Event` without an
``__init__`` frame and never delegates to another Python method, and
the run loop calls nothing per event besides the callback.  The heap
tier costs the same: its entries are tuples, so a push or sift compares
in C, and cancelling a heap event is the one ``cancel`` call.  Call
counts do not depend on the host or the Python version, so this runs in
CI's fast guard step.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro.sim.engine import Simulator

#: The ``engine_wheel`` delays: some land in the bucket being drained
#: (insort), the rest in later buckets (append).
DELAYS = (0.5e-6, 1e-6, 2e-6, 5e-6)
CHAINS = 8
HOPS = 200


def profile_chains(method: str) -> Counter:
    """Run CHAINS chains of HOPS events that reschedule through
    ``method``; return Python-level calls by function name."""
    sim = Simulator(slow_path=False)
    schedule = getattr(sim, method)

    def hop(left: int, time: float) -> None:
        # ``time`` is this event's own time: reading the ``now``
        # property would be a Python call of its own.
        if left:
            delay = DELAYS[left & 3]
            if method == "schedule":
                schedule(delay, hop, left - 1, time + delay)
            else:
                schedule(time + delay, hop, left - 1, time + delay)

    for chain in range(CHAINS):
        delay = DELAYS[chain & 3]
        sim.schedule(delay, hop, HOPS - 1, delay)
    calls: Counter = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profiler)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
    assert sim.events_processed == CHAINS * HOPS
    return calls


@pytest.mark.parametrize("method", ["schedule", "at", "at_ff"])
def test_two_python_calls_per_event(method):
    events = CHAINS * HOPS
    calls = profile_chains(method)
    # Every event runs its callback; every event but a chain's last
    # schedules the next one; run() and its loop are entered once.
    assert calls == Counter({"hop": events, method: events - CHAINS,
                             "run": 1, "_run_fast": 1})


#: Beyond the wheel's ~4.1 ms window, so every hop rides the heap.
HEAP_DELAYS = (5e-3, 6e-3, 7e-3, 8e-3)
#: An RTO-like timer each hop arms and cancels at once.  It comes due
#: before any chain's next hop, so the run loop pops it dead and the
#: heap never grows large enough to compact.
TIMER_DELAY = 4.5e-3


def _never() -> None:  # pragma: no cover - cancelled before it fires
    raise AssertionError("a cancelled timer fired")


def profile_heap_chains(method: str) -> Counter:
    """CHAINS concurrent chains of HOPS heap-tier events rescheduling
    through ``method``; each hop also arms and cancels a heap timer."""
    sim = Simulator(slow_path=False)
    schedule = getattr(sim, method)
    arm = sim.schedule

    def hop(left: int, time: float) -> None:
        if left:
            arm(TIMER_DELAY, _never).cancel()
            delay = HEAP_DELAYS[left & 3]
            if method == "schedule":
                schedule(delay, hop, left - 1, time + delay)
            else:
                schedule(time + delay, hop, left - 1, time + delay)

    for chain in range(CHAINS):
        delay = HEAP_DELAYS[chain & 3]
        sim.schedule(delay, hop, HOPS - 1, delay)
    calls: Counter = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profiler)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
    assert sim.events_processed == sim.heap_events_processed == CHAINS * HOPS
    assert sim.compactions == 0
    return calls


@pytest.mark.parametrize("method", ["schedule", "at", "at_ff"])
def test_heap_tier_costs_two_calls_per_event_and_one_per_cancel(method):
    events = CHAINS * HOPS
    rearms = events - CHAINS
    calls = profile_heap_chains(method)
    # Each hop: the callback, one scheduling call for the next hop, and
    # the timer's schedule + cancel.  No comparison, no bookkeeping
    # helper and no delegation to ``at`` shows up as a frame.
    assert calls == Counter({"hop": events, "cancel": rearms,
                             "run": 1, "_run_fast": 1}) + Counter(
        {"schedule": rearms}) + Counter({method: rearms})
