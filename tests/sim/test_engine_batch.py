"""Bucket drain semantics: the fast loop against the heap-only reference.

The fast path drains whole timing-wheel buckets; ``slow_path=True`` runs
the original heap-only loop.  Firing order, clocks and results must be
indistinguishable.
"""

from repro.sim.engine import Simulator


def record_run(sim, horizon=0.002):
    """Schedule a deterministic mixed workload; return the firing log."""
    log = []

    def fire(tag):
        log.append((round(sim.now, 12), tag))

    def chain(tag, depth, delay):
        log.append((round(sim.now, 12), tag))
        if depth > 0:
            sim.schedule(delay, chain, f"{tag}+", depth - 1, delay)

    # Same-timestamp clusters (the batch case), short chains (reentrant
    # scheduling inside a bucket), scattered singles, and a long-horizon
    # heap timer that lands mid-bucket.
    for i in range(50):
        t = (i % 7) * 1e-6
        sim.at(t, fire, f"cluster{i}")
    sim.at(3e-6, chain, "chain", 5, 0.4e-6)
    sim.at(1.5e-3, fire, "late")          # heap tier (beyond the wheel?)
    sim.schedule(0.9e-6, chain, "c2", 3, 2e-6)
    cancelled = sim.at(2e-6, fire, "never")
    cancelled.cancel()
    sim.run(until=horizon)
    return log


class TestBatchSemantics:
    def test_identical_firing_order(self):
        fast = record_run(Simulator())
        slow = record_run(Simulator(slow_path=True))
        assert fast == slow
        assert len(fast) > 50

    def test_identical_engine_totals(self):
        sims = [Simulator(), Simulator(slow_path=True)]
        for sim in sims:
            record_run(sim)
        assert sims[0].events_processed == sims[1].events_processed
        assert sims[0].now == sims[1].now

    def test_unbatched_handles_empty_heap(self):
        # Wheel events must fire when the heap is completely empty (the
        # drain cannot compare against a heap top that does not exist).
        sim = Simulator()
        log = []
        for i in range(10):
            sim.at(i * 1e-7, lambda i=i: log.append(i))
        sim.run()
        assert log == list(range(10))

    def test_max_events_budget_respected(self):
        for slow in (False, True):
            sim = Simulator(slow_path=slow)
            for i in range(20):
                sim.at(1e-6, lambda: None)
            assert sim.run(max_events=7) == 7
            assert sim.events_processed == 7

    def test_step_single_event(self):
        sim = Simulator()
        fired = []
        sim.at(1e-6, lambda: fired.append(1))
        sim.at(1e-6, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]
