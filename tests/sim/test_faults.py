"""The chaos layer: spec validation, loss models, scheduling, determinism."""

from __future__ import annotations

import pytest

from repro.net.link import Link
from repro.net.packet import make_data
from repro.sim.engine import Simulator
from repro.sim.faults import FaultScheduler, FaultSpec, loss_spec
from repro.sim.rng import stable_digest


class Sink:
    name = "sink"

    def __init__(self):
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def _pump(sim, link, n, spacing=1e-6, start=0.0):
    """Schedule ``n`` data packets onto ``link``, one per ``spacing``."""
    for i in range(n):
        sim.at(start + i * spacing, link.deliver, make_data(1, 0, 1, i))


class TestFaultSpecValidation:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            FaultSpec(model="bitrot")

    @pytest.mark.parametrize("model", ["iid-loss", "crc-corrupt"])
    def test_rate_bounds(self, model):
        FaultSpec(model=model, rate=0.0)
        FaultSpec(model=model, rate=1.0)
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(model=model, rate=1.5)
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(model=model, rate=-0.1)

    def test_gilbert_elliott_probability_bounds(self):
        FaultSpec(model="gilbert-elliott", p=0.1, r=0.5, h=0.9, k=0.0)
        for name in ("p", "r", "h", "k"):
            with pytest.raises(ValueError, match=name):
                FaultSpec(model="gilbert-elliott", **{name: 1.2})

    def test_flap_window_shape(self):
        FaultSpec(model="flap", down=0.0, up=1e-3)
        with pytest.raises(ValueError, match="down"):
            FaultSpec(model="flap", down=2e-3, up=1e-3)
        with pytest.raises(ValueError, match="period"):
            FaultSpec(model="flap", down=0.0, up=1e-3, period=0.5e-3)

    def test_start_stop_window(self):
        FaultSpec(model="iid-loss", rate=0.1, start=1.0, stop=2.0)
        with pytest.raises(ValueError, match="start"):
            FaultSpec(model="iid-loss", rate=0.1, start=-1.0)
        with pytest.raises(ValueError, match="stop"):
            FaultSpec(model="iid-loss", rate=0.1, start=2.0, stop=1.0)


class TestFaultSpecSerialization:
    def test_param_round_trip(self):
        spec = FaultSpec(model="gilbert-elliott", links="leaf*->spine*",
                         p=0.01, r=0.25, h=0.5, start=1e-3, stop=5e-3,
                         salt=7)
        assert FaultSpec.from_param(spec.to_param()) == spec

    def test_from_param_accepts_json_list_shape(self):
        # The run store round-trips nested tuples through JSON lists.
        spec = FaultSpec(model="iid-loss", rate=0.001)
        pairs = [list(pair) for pair in spec.to_param()]
        assert FaultSpec.from_param(pairs) == spec

    def test_from_param_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown FaultSpec fields"):
            FaultSpec.from_param([("model", "iid-loss"), ("typo", 1)])

    def test_to_param_is_digestable(self):
        spec = FaultSpec(model="iid-loss", rate=0.01)
        digest = stable_digest(spec.to_param())
        assert digest == stable_digest(FaultSpec(model="iid-loss",
                                                 rate=0.01).to_param())
        assert digest != stable_digest(FaultSpec(model="iid-loss",
                                                 rate=0.02).to_param())

    def test_parse_full_spelling(self):
        spec = FaultSpec.parse(
            "iid-loss:rate=0.001,links=sw0->recv,start=0.001,stop=none,salt=2")
        assert spec == FaultSpec(model="iid-loss", rate=0.001,
                                 links="sw0->recv", start=0.001, stop=None,
                                 salt=2)

    def test_parse_bare_model(self):
        assert FaultSpec.parse("flap:up=0.001") == FaultSpec(model="flap",
                                                             up=0.001)

    @pytest.mark.parametrize("text", [
        "iid-loss:rate",            # missing =value
        "iid-loss:rate=0.5,typo=1",  # unknown field
        "bitrot:rate=0.5",          # unknown model
    ])
    def test_parse_errors(self, text):
        with pytest.raises(ValueError):
            FaultSpec.parse(text)


class TestLossSpec:
    def test_iid_passthrough(self):
        assert loss_spec("iid-loss", 0.01).rate == 0.01

    def test_gilbert_elliott_matched_average(self):
        spec = loss_spec("gilbert-elliott", 0.01)
        stationary = spec.h * spec.p / (spec.p + spec.r)
        assert stationary == pytest.approx(0.01)

    def test_gilbert_elliott_rate_must_be_below_h(self):
        with pytest.raises(ValueError, match="average loss"):
            loss_spec("gilbert-elliott", 0.6)

    def test_flap_rejected(self):
        with pytest.raises(ValueError, match="loss models"):
            loss_spec("flap", 0.1)


class TestProcessDefault:
    def test_default_resolution(self, small_incast):
        """``RunConfig.faults`` is honoured; an explicit argument wins."""
        from repro.store.spec import RunConfig

        specs = (FaultSpec(model="iid-loss", rate=0.1, links="bottleneck"),)
        config = RunConfig(faults=specs)
        assert small_incast().chaos is None
        assert tuple(small_incast(config).chaos.specs) == specs
        # An explicit argument always wins, including "no faults" …
        assert small_incast(config, faults=()).chaos is None
        # … and the config's faults do not outlive the call.
        assert small_incast().chaos is None


def _run_loss(sim, spec, n=2000, seed=1):
    sink = Sink()
    link = Link(sim, 10e9, 1e-6, sink, name="wire")
    chaos = FaultScheduler(sim, [spec], seed=seed)
    chaos.apply(links=[link])
    _pump(sim, link, n)
    sim.run()
    return link, sink, chaos


class TestLossModels:
    def test_iid_rate_zero_and_one_are_exact(self, sim):
        link, sink, _ = _run_loss(sim, FaultSpec(model="iid-loss", rate=0.0),
                                  n=100)
        assert (link.packets_delivered, link.packets_lost) == (100, 0)
        sim2 = Simulator()
        link, sink, _ = _run_loss(sim2, FaultSpec(model="iid-loss", rate=1.0),
                                  n=100)
        assert (link.packets_delivered, link.packets_lost) == (0, 100)
        assert sink.received == []
        assert link.lost_wire == 100

    def test_iid_loss_near_rate(self, sim):
        link, sink, chaos = _run_loss(
            sim, FaultSpec(model="iid-loss", rate=0.3), n=4000)
        assert link.packets_delivered + link.packets_lost == 4000
        assert len(sink.received) == link.packets_delivered
        # 4000 Bernoulli(0.3) draws: ±5 sigma around the mean.
        assert abs(link.packets_lost - 1200) < 5 * (4000 * 0.3 * 0.7) ** 0.5
        assert chaos.stats()["drops"] == {"wire": link.packets_lost}

    def test_gilbert_elliott_losses_are_bursty(self, sim):
        # Matched average rate, but GE with slow recovery concentrates
        # losses in runs: count loss-run lengths and compare.
        n = 6000
        spec = FaultSpec(model="gilbert-elliott", p=0.002, r=0.05, h=0.9)
        link, sink, _ = _run_loss(sim, spec, n=n)
        lost = n - len(sink.received)
        assert 0 < lost < n
        received_seqs = {p.seq for p in sink.received}
        runs, current = [], 0
        for seq in range(n):
            if seq in received_seqs:
                if current:
                    runs.append(current)
                current = 0
            else:
                current += 1
        if current:
            runs.append(current)
        assert max(runs) >= 5  # bursts, not isolated drops
        assert sum(runs) == lost == link.lost_wire

    def test_crc_corruption_charged_but_propagates(self, sim):
        link, sink, chaos = _run_loss(
            sim, FaultSpec(model="crc-corrupt", rate=1.0), n=50)
        assert sink.received == []
        assert link.packets_delivered == 0
        assert link.lost_crc == link.packets_lost == 50
        assert chaos.stats()["drops"] == {"crc": 50}

    def test_active_window_honored(self, sim):
        # Total loss between t=10µs and t=20µs; clean outside the window.
        spec = FaultSpec(model="iid-loss", rate=1.0, start=10e-6, stop=20e-6)
        sink = Sink()
        link = Link(sim, 10e9, 1e-9, sink, name="wire")
        chaos = FaultScheduler(sim, [spec], seed=1)
        chaos.apply(links=[link])
        # Packet i hits the wire at (i + 0.5) µs, off the window edges.
        _pump(sim, link, 30, spacing=1e-6, start=0.5e-6)
        sim.run()
        assert link.packets_lost == 10  # t = 10..19 µs inclusive
        lost_seqs = {i for i in range(30)} - {p.seq for p in sink.received}
        assert lost_seqs == set(range(10, 20))


class TestFlap:
    def test_single_flap_window(self, sim):
        spec = FaultSpec(model="flap", down=10e-6, up=20e-6)
        sink = Sink()
        link = Link(sim, 10e9, 1e-9, sink, name="wire")
        FaultScheduler(sim, [spec], seed=0).apply(links=[link])
        _pump(sim, link, 30, spacing=1e-6, start=0.5e-6)
        sim.run()
        assert link.up
        lost_seqs = {i for i in range(30)} - {p.seq for p in sink.received}
        assert lost_seqs == set(range(10, 20))
        assert link.lost_down == 10

    def test_periodic_flap_repeats_until_stop(self, sim):
        spec = FaultSpec(model="flap", down=0.0, up=5e-6, period=10e-6,
                         stop=35e-6)
        sink = Sink()
        link = Link(sim, 10e9, 1e-9, sink, name="wire")
        chaos = FaultScheduler(sim, [spec], seed=0)
        chaos.apply(links=[link])
        _pump(sim, link, 40, spacing=1e-6, start=0.5e-6)
        sim.run()
        # Cycles at 0, 10, 20, 30 µs; the stop at 35 µs cuts the next.
        assert chaos.flaps_scheduled == 4
        lost = {i for i in range(40)} - {p.seq for p in sink.received}
        expected = set()
        for base in (0, 10, 20, 30):
            expected |= set(range(base, base + 5))
        assert lost == expected


class TestDeterminism:
    def _loss_pattern(self, seed, salt=0, name="wire"):
        sim = Simulator()
        sink = Sink()
        link = Link(sim, 10e9, 1e-6, sink, name=name)
        spec = FaultSpec(model="iid-loss", rate=0.2, salt=salt)
        FaultScheduler(sim, [spec], seed=seed).apply(links=[link])
        _pump(sim, link, 500)
        sim.run()
        return tuple(p.seq for p in sink.received)

    def test_same_seed_same_pattern(self):
        assert self._loss_pattern(7) == self._loss_pattern(7)

    def test_seed_salt_and_link_name_key_the_stream(self):
        base = self._loss_pattern(7)
        assert self._loss_pattern(8) != base
        assert self._loss_pattern(7, salt=1) != base
        assert self._loss_pattern(7, name="other") != base


class TestFaultScheduler:
    def _links(self, sim, names):
        return [Link(sim, 10e9, 1e-6, Sink(), name=name) for name in names]

    def test_select_links_fnmatch(self, sim):
        links = self._links(sim, ["leaf0->spine0", "leaf0->spine1",
                                  "sw0->recv"])
        picked = FaultScheduler.select_links(links, "leaf0->*")
        assert [link.name for link in picked] == ["leaf0->spine0",
                                                 "leaf0->spine1"]
        assert FaultScheduler.select_links(links, "all") == links

    def test_select_bottleneck_requires_network(self, sim):
        with pytest.raises(ValueError, match="bottleneck"):
            FaultScheduler.select_links(self._links(sim, ["a"]), "bottleneck")

    def test_apply_twice_is_an_error(self, sim):
        chaos = FaultScheduler(sim, [FaultSpec(model="iid-loss", rate=0.1)])
        chaos.apply(links=self._links(sim, ["wire"]))
        with pytest.raises(RuntimeError, match="twice"):
            chaos.apply(links=self._links(sim, ["wire"]))

    def test_empty_selector_match_is_an_error(self, sim):
        chaos = FaultScheduler(
            sim, [FaultSpec(model="iid-loss", rate=0.1, links="nope*")])
        with pytest.raises(ValueError, match="matches no link"):
            chaos.apply(links=self._links(sim, ["wire"]))

    def test_two_loss_models_on_one_link_conflict(self, sim):
        chaos = FaultScheduler(sim, [
            FaultSpec(model="iid-loss", rate=0.1),
            FaultSpec(model="crc-corrupt", rate=0.1),
        ])
        with pytest.raises(ValueError, match="do not compose"):
            chaos.apply(links=self._links(sim, ["wire"]))

    def test_loss_and_flap_compose(self, sim):
        chaos = FaultScheduler(sim, [
            FaultSpec(model="iid-loss", rate=0.1),
            FaultSpec(model="flap", down=1e-6, up=2e-6),
        ])
        chaos.apply(links=self._links(sim, ["wire"]))
        assert len(chaos.faulted_links) == 1

    def test_stats_names_and_reasons_sorted(self, sim):
        links = self._links(sim, ["b-wire", "a-wire"])
        chaos = FaultScheduler(
            sim, [FaultSpec(model="iid-loss", rate=1.0, links="all")], seed=1)
        chaos.apply(links=links)
        for link in links:
            link.deliver(make_data(1, 0, 1, 0))
        sim.run()
        stats = chaos.stats()
        assert list(stats["links"]) == ["a-wire", "b-wire"]
        assert stats["drops"] == {"wire": 2}
        assert list(stats["drops"]) == sorted(stats["drops"])
