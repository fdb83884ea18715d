"""Unit tests for the closed-loop threshold controller layer."""

from __future__ import annotations

import pytest

from repro.control.controller import (CemController, ControllerRuntime,
                                      ControllerSpec, TheoremController)
from repro.control.observation import ObservationVector, PortSampler
from repro.core.analysis import port_threshold_lower_bound
from repro.core.pmsb import PmsbMarker
from repro.ecn.mq_ecn import MqEcnMarker
from repro.ecn.per_port import PerPortMarker
from repro.net.link import Link
from repro.net.packet import make_data
from repro.net.port import Port
from repro.scheduling.dwrr import DwrrScheduler


class Sink:
    name = "sink"

    def receive(self, packet):
        pass


def make_port(sim, marker, name="port", bandwidth=1e9):
    return Port(sim, Link(sim, bandwidth, 1e-6, Sink()), DwrrScheduler(2),
                marker, name=name)


def observation(port="p", time=0.001, rtt_samples=(), capacity=1e9):
    return ObservationVector(
        port=port, time=time, interval=500e-6, occupancy_packets=0,
        occupancy_bytes=0, capacity_bps=capacity, throughput_bps=0.0,
        utilization=0.0, marking_rate=0.0, drop_rate=0.0,
        rtt_samples=tuple(rtt_samples))


class TestControllerSpec:
    def test_parse_name_only_uses_defaults(self):
        spec = ControllerSpec.parse("theorem")
        assert spec.name == "theorem"
        assert spec.period == 500e-6
        assert spec.margin == 1.0

    def test_parse_with_options(self):
        spec = ControllerSpec.parse("cem:t1=0.01,k0=8,k1=24")
        assert (spec.t1, spec.k0, spec.k1) == (0.01, 8.0, 24.0)

    def test_parse_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown controller"):
            ControllerSpec.parse("pid")

    def test_parse_rejects_unknown_option(self):
        with pytest.raises(ValueError):
            ControllerSpec.parse("theorem:gain=2")

    def test_parse_rejects_malformed_option(self):
        with pytest.raises(ValueError, match="key=value"):
            ControllerSpec.parse("theorem:margin")

    def test_validation(self):
        with pytest.raises(ValueError):
            ControllerSpec(name="theorem", period=0.0)
        with pytest.raises(ValueError):
            ControllerSpec(name="theorem", margin=0.0)
        with pytest.raises(ValueError):
            ControllerSpec(name="cem", k0=-1.0)
        with pytest.raises(ValueError):
            ControllerSpec(name="cem", t1=-1.0)

    def test_param_round_trip(self):
        spec = ControllerSpec.parse("cem:t1=0.004,k0=4,k1=16")
        assert ControllerSpec.from_param(spec.to_param()) == spec

    def test_to_param_is_canonical_and_hashable(self):
        a = ControllerSpec(name="cem", k0=4.0).to_param()
        b = ControllerSpec(name="cem", k0=4.0).to_param()
        assert a == b
        hash(a)  # must be usable inside ExperimentSpec params

    def test_from_param_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown controller fields"):
            ControllerSpec.from_param((("name", "cem"), ("gain", 2.0)))

    def test_build_dispatch(self):
        assert isinstance(ControllerSpec(name="theorem").build(),
                          TheoremController)
        assert isinstance(ControllerSpec(name="cem").build(), CemController)

    def test_wants_rtt(self):
        assert ControllerSpec(name="theorem").wants_rtt
        assert not ControllerSpec(name="cem").wants_rtt

    def test_default_plumbing(self, small_incast):
        """``RunConfig.controller`` is honoured; an explicit argument
        wins.  A cem schedule pinned at K makes the port threshold K."""
        from repro.store.spec import RunConfig

        def threshold_after(*args, **kwargs):
            network = small_incast(*args, **kwargs).network
            port = network.observed_ports("bottleneck")[0]
            return port.marker.port_threshold_packets

        def pinned(k):
            return ControllerSpec(name="cem", period=1e-4, t1=0.0, k0=k, k1=k)

        config = RunConfig(controller=pinned(3.0))
        assert threshold_after() == 12.0
        assert threshold_after(config) == 3.0
        assert threshold_after(config, controller=pinned(30.0)) == 30.0
        assert threshold_after() == 12.0


class TestPortSampler:
    def test_window_deltas(self, sim):
        port = make_port(sim, PmsbMarker(2.0))
        sampler = PortSampler(port)
        for seq in range(5):
            port.enqueue(make_data(1, 0, 1, seq), 0)
        sim.run()
        obs = sampler.sample(sim.now, (1e-4,))
        assert obs.port == "port"
        assert obs.interval == pytest.approx(sim.now)
        assert obs.occupancy_packets == 0  # drained
        assert obs.throughput_bps > 0
        assert 0.0 < obs.utilization <= 1.0
        assert obs.marking_rate > 0  # threshold 2, occupancy hit 5
        assert obs.drop_rate == 0.0
        assert obs.rtt_samples == (1e-4,)

    def test_second_window_rebaselines(self, sim):
        port = make_port(sim, PmsbMarker(1000.0))
        sampler = PortSampler(port)
        port.enqueue(make_data(1, 0, 1, 0), 0)
        sim.run()
        sampler.sample(sim.now)
        # No traffic in the second window: all rates must read zero.
        obs = sampler.sample(sim.now + 1e-3)
        assert obs.throughput_bps == 0.0
        assert obs.marking_rate == 0.0
        assert obs.drop_rate == 0.0


class TestTheoremController:
    def test_holds_without_samples(self, sim):
        port = make_port(sim, PmsbMarker(12.0))
        controller = TheoremController()
        assert controller.update(observation(), port) is None

    def test_sets_bound_from_observed_rtt(self, sim):
        port = make_port(sim, PmsbMarker(12.0))
        controller = TheoremController(margin=1.0, floor=1.0)
        rtt = 200e-6
        changes = controller.update(observation(rtt_samples=(rtt,)), port)
        expected = port_threshold_lower_bound(port.weights, 1e9, rtt)
        assert changes == {"port_threshold_packets":
                           pytest.approx(max(1.0, expected))}

    def test_ewma_converges_and_goes_quiet(self, sim):
        port = make_port(sim, PmsbMarker(12.0))
        controller = TheoremController()
        rtt = 200e-6
        changes = controller.update(observation(rtt_samples=(rtt,)), port)
        port.marker.set_thresholds(**changes)
        port.enqueue(make_data(1, 0, 1, 0), 0)  # commit at boundary
        # Same RTT again: EWMA is already there, target equals current.
        assert controller.update(observation(rtt_samples=(rtt,)), port) is None

    def test_margin_and_floor(self, sim):
        port = make_port(sim, PmsbMarker(12.0))
        high = TheoremController(margin=2.0)
        low = TheoremController(floor=50.0)
        obs = observation(rtt_samples=(200e-6,))
        bound = port_threshold_lower_bound(port.weights, 1e9, 200e-6)
        assert high.update(obs, port)["port_threshold_packets"] == \
            pytest.approx(2.0 * bound)
        assert low.update(obs, port)["port_threshold_packets"] == 50.0

    def test_leaves_untunable_schemes_alone(self, sim):
        port = make_port(sim, MqEcnMarker(rtt=200e-6))
        controller = TheoremController()
        assert controller.update(observation(rtt_samples=(1e-4,)), port) is None


class TestCemController:
    def test_phase_schedule(self, sim):
        port = make_port(sim, PerPortMarker(10.0))
        controller = CemController(t1=0.01, k0=4.0, k1=24.0)
        assert controller.update(observation(time=0.001), port) == \
            {"threshold_packets": 4.0}
        assert controller.update(observation(time=0.02), port) == \
            {"threshold_packets": 24.0}

    def test_idempotent_once_on_target(self, sim):
        port = make_port(sim, PerPortMarker(10.0))
        controller = CemController(t1=0.0, k0=4.0, k1=4.0)
        port.marker.set_thresholds(threshold_packets=4.0)
        port.enqueue(make_data(1, 0, 1, 0), 0)  # commit
        epoch = port.marker.threshold_epoch
        assert controller.update(observation(time=0.02), port) is None
        assert port.marker.threshold_epoch == epoch


class TestControllerRuntime:
    def test_ticks_and_stages_changes(self, sim):
        port = make_port(sim, PmsbMarker(1000.0))
        runtime = ControllerRuntime(
            sim, [port], CemController(t1=0.0, k0=2.0, k1=2.0), 1e-3)
        runtime.start()
        runtime.start()  # idempotent
        for seq in range(40):
            sim.at(seq * 2.5e-4, lambda s=seq:
                   port.enqueue(make_data(1, 0, 1, s), 0))
        sim.run(until=5e-3)
        runtime.stop()
        stats = runtime.stats()
        assert stats["ticks"] >= 4
        # First tick stages k=2; the next packet boundary commits it.
        assert stats["changes_staged"] == 1
        assert port.marker.thresholds()["port_threshold_packets"] == 2.0

    def test_stop_halts_rescheduling(self, sim):
        port = make_port(sim, PmsbMarker(1000.0))
        runtime = ControllerRuntime(
            sim, [port], CemController(t1=0.0, k0=2.0, k1=2.0), 1e-3)
        runtime.start()
        runtime.stop()
        sim.run(until=10e-3)
        assert runtime.ticks == 0

    def test_rtt_draining_consumes_tail_once(self, sim):
        port = make_port(sim, PmsbMarker(12.0))

        class Source:
            rtt_samples = [1e-4, 2e-4]

        source = Source()
        runtime = ControllerRuntime(sim, [port], TheoremController(), 1e-3)
        runtime.add_rtt_source(source)
        assert runtime._drain_rtt() == (1e-4, 2e-4)
        assert runtime._drain_rtt() == ()  # already consumed
        source.rtt_samples.append(3e-4)
        assert runtime._drain_rtt() == (3e-4,)

    def test_sources_without_samples_ignored(self, sim):
        port = make_port(sim, PmsbMarker(12.0))
        runtime = ControllerRuntime(sim, [port], TheoremController(), 1e-3)
        runtime.add_rtt_source(object())  # no rtt_samples attribute
        assert runtime.stats()["rtt_sources"] == 0

    def test_rejects_bad_period(self, sim):
        with pytest.raises(ValueError):
            ControllerRuntime(sim, [], TheoremController(), 0.0)
