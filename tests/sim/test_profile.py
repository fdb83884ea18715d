"""Unit tests for the simulation profiler."""

from __future__ import annotations

from repro.net.link import Link
from repro.net.packet import make_data
from repro.net.port import Port
from repro.scheduling.fifo import FifoScheduler
from repro.sim.engine import Simulator
from repro.sim.profile import HeapSample, SimProfiler


class _Sink:
    name = "sink"

    def __init__(self):
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def make_port(sim):
    sink = _Sink()
    link = Link(sim, 1e9, 1e-6, sink)
    return Port(sim, link, FifoScheduler(1), None), sink


class TestCounters:
    def test_count_creates_and_accumulates(self, sim):
        profiler = SimProfiler(sim)
        profiler.count("tx")
        profiler.count("tx", 3)
        profiler.count("timer")
        assert profiler.counters == {"tx": 4, "timer": 1}

    def test_attach_sets_simulator_hook(self, sim):
        assert sim.profiler is None
        profiler = SimProfiler(sim)
        assert sim.profiler is profiler

    def test_detach_clears_hook(self, sim):
        profiler = SimProfiler(sim)
        profiler.detach()
        assert sim.profiler is None

    def test_detach_of_superseded_profiler_keeps_current(self, sim):
        old = SimProfiler(sim)
        new = SimProfiler(sim)
        old.detach()
        assert sim.profiler is new


class TestSampling:
    def test_periodic_samples_collected(self, sim):
        profiler = SimProfiler(sim, sample_interval=0.1)
        profiler.start()
        sim.schedule(1.05, lambda: None)
        sim.run(until=1.05)
        profiler.stop()
        assert len(profiler.samples) == 10
        assert isinstance(profiler.samples[0], HeapSample)
        assert profiler.samples[0].sim_time == 0.1

    def test_samples_record_engine_state(self, sim):
        profiler = SimProfiler(sim, sample_interval=0.1)
        profiler.start()
        for index in range(5):
            sim.schedule(0.35 + index, lambda: None)
        sim.run(until=0.25)
        profiler.stop()
        last = profiler.samples[-1]
        assert last.pending_events >= 5
        # The sample is taken inside its own tick, before the engine
        # credits that tick to events_processed.
        assert last.events_processed <= sim.events_processed
        assert last.wall_seconds >= 0.0

    def test_max_pending_events(self, sim):
        profiler = SimProfiler(sim, sample_interval=0.1)
        assert profiler.max_pending_events == 0
        profiler.start()
        for index in range(20):
            sim.schedule(0.15 + 0.001 * index, lambda: None)
        sim.run(until=0.45)
        profiler.stop()
        assert profiler.max_pending_events >= 20

    def test_stop_is_idempotent_and_freezes_wall(self, sim):
        profiler = SimProfiler(sim, sample_interval=0.1)
        profiler.start()
        sim.schedule(0.05, lambda: None)
        sim.run(until=0.05)
        profiler.stop()
        wall = profiler._wall()
        profiler.stop()
        assert profiler._wall() == wall


class TestDerived:
    def test_events_executed_spans_start_to_stop(self, sim):
        for index in range(3):
            sim.schedule(0.1 * (index + 1), lambda: None)
        sim.run()  # 3 events before the profiler exists
        profiler = SimProfiler(sim, sample_interval=10.0)
        profiler.start()
        for index in range(7):
            sim.schedule(0.1 * (index + 1), lambda: None)  # relative delays
        sim.run(until=sim.now + 0.9)
        profiler.stop()
        # The sampler task contributes events too; at least the 7 user
        # events must be counted, and none of the pre-start 3.
        assert 7 <= profiler.events_executed <= sim.events_processed - 3

    def test_events_per_second_positive_after_run(self, sim):
        profiler = SimProfiler(sim, sample_interval=10.0)
        profiler.start()
        for index in range(100):
            sim.schedule(1e-6 * (index + 1), lambda: None)
        sim.run(until=1e-3)
        profiler.stop()
        assert profiler.events_per_second() > 0.0

    def test_report_mentions_key_figures(self, sim):
        profiler = SimProfiler(sim, sample_interval=0.1)
        profiler.start()
        profiler.count("tx", 42)
        sim.schedule(0.25, lambda: None)
        sim.run(until=0.25)
        profiler.stop()
        report = profiler.report()
        assert "events executed" in report
        assert "events/sec" in report
        assert "tx" in report and "42" in report
        assert "heap size" in report


class TestComponentHooks:
    def test_port_counts_transmissions(self, sim):
        profiler = SimProfiler(sim)
        port, _sink = make_port(sim)
        port.observe(profiler)
        for index in range(4):
            port.enqueue(make_data(1, 0, 1, index), 0)
        sim.run()
        assert profiler.counters.get("tx") == 4

    def test_no_profiler_means_no_counting(self):
        sim = Simulator()
        port, sink = make_port(sim)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        sim.run()
        assert len(sink.received) == 1  # datapath unaffected


class TestEngineTierAndPoolAccounting:
    """Wheel/heap split over the profiled span."""

    def test_tier_split_reconciles_with_events_executed(self, sim):
        profiler = SimProfiler(sim, sample_interval=1e-3)
        profiler.start()
        for index in range(20):
            sim.schedule(1e-5 * (index + 1), lambda: None)   # wheel tier
        for index in range(5):
            sim.schedule(0.5 + 1e-2 * index, lambda: None)   # heap tier
        sim.run(until=1.0)
        profiler.stop()
        # The sampler's own periodic events are counted too, so assert
        # the reconciliation identity rather than exact per-tier counts.
        assert (profiler.wheel_events_executed + profiler.heap_events_executed
                == profiler.events_executed)
        assert profiler.wheel_events_executed >= 20
        assert profiler.heap_events_executed >= 5

    def test_tier_counters_are_span_relative(self, sim):
        sim.schedule(1e-4, lambda: None)
        sim.run()   # before start(): must not count toward the span
        profiler = SimProfiler(sim, sample_interval=1.0)
        profiler.start()
        sim.schedule(1e-4, lambda: None)
        sim.run(until=0.5)
        profiler.stop()
        assert profiler.events_executed >= 1
        assert (profiler.wheel_events_executed + profiler.heap_events_executed
                == profiler.events_executed)

    def test_report_includes_tier_split(self, sim):
        profiler = SimProfiler(sim, sample_interval=0.1)
        profiler.start()
        sim.schedule(1e-4, lambda: None)
        sim.run(until=0.05)
        profiler.stop()
        report = profiler.report()
        assert "tier split" in report
        assert "wheel" in report
