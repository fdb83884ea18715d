"""Unit tests for switch forwarding and ECMP."""

from __future__ import annotations

import pytest

from repro.net.link import Link
from repro.net.packet import make_data
from repro.net.port import Port
from repro.net.switch import Switch, service_classifier
from repro.scheduling.fifo import FifoScheduler


class Sink:
    name = "sink"

    def __init__(self):
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def add_port(sim, switch, n_queues=1):
    sink = Sink()
    port = Port(sim, Link(sim, 10e9, 1e-6, sink), FifoScheduler(n_queues))
    switch.add_port(port)
    return port, sink


class TestForwarding:
    def test_forwards_to_routed_port(self, sim):
        switch = Switch(sim)
        _port0, sink0 = add_port(sim, switch)
        _port1, sink1 = add_port(sim, switch)
        switch.set_route(5, [1])
        switch.receive(make_data(1, 0, 5, 0))
        sim.run()
        assert len(sink1.received) == 1
        assert sink0.received == []

    def test_missing_route_raises(self, sim):
        switch = Switch(sim)
        add_port(sim, switch)
        with pytest.raises(RuntimeError):
            switch.receive(make_data(1, 0, 99, 0))

    def test_route_validation(self, sim):
        switch = Switch(sim)
        add_port(sim, switch)
        with pytest.raises(ValueError):
            switch.set_route(1, [5])
        with pytest.raises(ValueError):
            switch.set_route(1, [])

    def test_forwarded_counter(self, sim):
        switch = Switch(sim)
        add_port(sim, switch)
        switch.set_route(1, [0])
        for seq in range(3):
            switch.receive(make_data(1, 0, 1, seq))
        assert switch.forwarded == 3


class TestEcmp:
    def _ecmp_switch(self, sim, n_ports=4):
        switch = Switch(sim)
        sinks = []
        for _ in range(n_ports):
            _port, sink = add_port(sim, switch)
            sinks.append(sink)
        switch.set_route(1, list(range(n_ports)))
        return switch, sinks

    def test_flow_stays_on_one_path(self, sim):
        switch, sinks = self._ecmp_switch(sim)
        for seq in range(20):
            switch.receive(make_data(flow_id=77, src=0, dst=1, seq=seq))
        sim.run()
        used = [len(s.received) for s in sinks if s.received]
        assert used == [20]  # exactly one path carried everything

    def test_flows_spread_across_paths(self, sim):
        switch, sinks = self._ecmp_switch(sim)
        for flow_id in range(200):
            switch.receive(make_data(flow_id, 0, 1, 0))
        sim.run()
        counts = [len(s.received) for s in sinks]
        assert all(count > 20 for count in counts)

    def _flow_mapping(self, sim, salt, n_flows=64):
        """Which port each flow id lands on, for one salt."""
        switch = Switch(sim, ecmp_salt=salt)
        for _ in range(4):
            add_port(sim, switch)
        switch.set_route(1, [0, 1, 2, 3])
        mapping = []
        for flow_id in range(n_flows):
            # No events run between receives, so buffer occupancy is a
            # reliable "this port got the packet" signal.
            before = [p.packet_count for p in switch.ports]
            switch.receive(make_data(flow_id, 0, 1, 0))
            after = [p.packet_count for p in switch.ports]
            chosen = [i for i in range(4) if after[i] > before[i]]
            mapping.append(chosen[0])
        return mapping

    def test_different_salts_hash_differently(self, sim):
        mapping_a = self._flow_mapping(sim, salt=1)
        mapping_b = self._flow_mapping(sim, salt=2)
        assert mapping_a != mapping_b

    def test_mapping_is_deterministic(self, sim):
        assert self._flow_mapping(sim, 7) == self._flow_mapping(sim, 7)


class TestClassification:
    def test_default_classifier_uses_service_modulo(self, sim):
        switch = Switch(sim)
        port, _sink = add_port(sim, switch, n_queues=4)
        assert service_classifier(make_data(1, 0, 1, 0, service=6), port) == 2

    def test_receive_applies_the_default_classifier(self, sim):
        # `receive` computes the default inline instead of calling it.
        switch = Switch(sim)
        port, _sink = add_port(sim, switch, n_queues=4)
        switch.set_route(1, [0])
        switch.receive(make_data(1, 0, 1, 0, service=6))
        assert port.queue_packet_count(2) == 1

    def test_custom_classifier(self, sim):
        switch = Switch(sim, classifier=lambda pkt, port: 1)
        port, _sink = add_port(sim, switch, n_queues=2)
        switch.set_route(1, [0])
        switch.receive(make_data(1, 0, 1, 0, service=0))
        assert port.queue_packet_count(1) == 1


class TestEcmpCache:
    def test_route_change_invalidates_cache(self, sim):
        switch = Switch(sim)
        for _ in range(3):
            add_port(sim, switch)
        switch.set_route(1, [0, 1])
        # Pin a flow through the cache.
        switch.receive(make_data(5, 0, 1, 0))
        # Repoint the route to port 2 only; the cached choice must die.
        switch.set_route(1, [2])
        before = switch.ports[2].packet_count
        switch.receive(make_data(5, 0, 1, 1))
        assert switch.ports[2].packet_count == before + 1

    def test_cache_hit_keeps_flow_pinned(self, sim):
        switch = Switch(sim)
        for _ in range(4):
            add_port(sim, switch)
        switch.set_route(1, [0, 1, 2, 3])
        for seq in range(10):
            switch.receive(make_data(9, 0, 1, seq))
        loaded = [p for p in switch.ports if p.packet_count > 0]
        assert len(loaded) == 1
