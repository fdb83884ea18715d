"""Unit tests for switch forwarding and ECMP."""

from __future__ import annotations

import pytest

from repro.ecn.base import NullMarker
from repro.net.link import Link
from repro.net.packet import make_data
from repro.net.port import Port
from repro.net.switch import Switch, service_classifier
from repro.net.topology import TopologySpec
from repro.scheduling.dwrr import DwrrScheduler
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

    def test_missing_route_names_switch_and_host(self, sim):
        switch = Switch(sim, name="tor")
        add_port(sim, switch)
        switch.set_route(1, [0])
        with pytest.raises(RuntimeError, match="^tor: no route to host 99$"):
            switch.receive(make_data(1, 0, 99, 0))

    @pytest.mark.parametrize("spec, top_tier", [
        ("leaf-spine:leaf=2,spine=2,hosts=3", "spine"),
        ("fat-tree:k=4", "core"),
    ])
    def test_unknown_host_ends_at_the_top_tier_of_a_clos(self, sim, spec,
                                                         top_tier):
        # Leaves and aggregation switches default upward; the first tier
        # without a default reports the miss, and nothing loops.
        network = TopologySpec.parse(spec).build(
            sim, lambda: FifoScheduler(1), NullMarker)
        network.switches[0].receive(make_data(1, 0, 999, 0))
        with pytest.raises(RuntimeError,
                           match=rf"^{top_tier}\w+: no route to host 999$"):
            sim.run()

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


    @pytest.mark.parametrize("queue_index", [-1, 7])
    def test_classifier_index_out_of_range(self, sim, queue_index):
        # -1 used to be served as queue 3; 7 raised a bare IndexError
        # after the port had already counted the packet.
        switch = Switch(sim, name="tor",
                        classifier=lambda pkt, port: queue_index)
        sink = Sink()
        port = Port(sim, Link(sim, 10e9, 1e-6, sink), DwrrScheduler(4),
                    name="tor:p0")
        switch.add_port(port)
        switch.set_route(1, [0])
        with pytest.raises(ValueError) as error:
            switch.receive(make_data(1, 0, 1, 0))
        assert str(error.value) == (
            f"tor: classifier put a packet in queue {queue_index} of "
            f"tor:p0, which has 4 queues")
        assert (port.packet_count, port.byte_count) == (0, 0)
        assert len(port.scheduler) == 0
        assert [port.scheduler.queue_len(q) for q in range(4)] == [0] * 4
        assert switch.forwarded == 0
        sim.run()
        assert sink.received == [] and port.tx_bytes == 0


class TestDefaultGroup:
    def _switch(self, sim):
        switch = Switch(sim)
        for _ in range(4):
            add_port(sim, switch)
        switch.install_routes({0: [0], 1: [1]}, default=[2, 3])
        return switch

    def test_default_answers_unlisted_destinations_with_one_group(self, sim):
        switch = self._switch(sim)
        assert switch.routes[0] == (0,)
        assert switch.routes[7] == (2, 3)
        assert switch.routes[7] is switch.routes[8] is switch.routes.default
        assert switch.routes.get(9) is None  # only a subscript resolves

    def test_default_group_is_validated(self, sim):
        switch = self._switch(sim)
        with pytest.raises(ValueError, match="no port with index 4"):
            switch.install_routes({}, default=[4])
        with pytest.raises(ValueError, match="at least one port"):
            switch.install_routes({}, default=[])

    def test_set_route_overrides_a_defaulted_destination(self, sim):
        switch = self._switch(sim)
        switch.receive(make_data(5, 0, 7, 0))  # resolved and ECMP-pinned
        assert switch._ecmp_cache
        switch.set_route(7, [1])
        assert not switch._ecmp_cache
        assert switch.routes[7] == [1]
        assert switch.routes[8] == (2, 3)
        switch.receive(make_data(5, 0, 7, 1))
        assert switch.ports[1].packet_count == 1

    def test_a_new_default_replaces_the_old_one_everywhere(self, sim):
        switch = self._switch(sim)
        assert switch.routes[7] == (2, 3)  # resolved, hence stored
        switch.install_routes({}, default=[3])
        assert switch.routes[7] == (3,) and switch.routes[0] == (0,)

    def test_install_without_default_is_a_plain_table(self, sim):
        switch = Switch(sim)
        add_port(sim, switch)
        switch.install_routes({0: [0]})
        with pytest.raises(KeyError):
            switch.routes[1]
        assert len(switch.routes) == 1


class TestResolvedRoutes:
    """Down-port host sets resolve on first lookup, like the default."""

    def _switch(self, sim):
        switch = Switch(sim)
        for _ in range(4):
            add_port(sim, switch)
        switch.install_routes({}, default=[2, 3], below={
            0: frozenset({0, 1}), 1: frozenset({5})})
        return switch

    def test_a_lookup_resolves_and_stores_its_entry(self, sim):
        switch = self._switch(sim)
        assert len(switch.routes) == 0
        assert switch.routes[1] == (0,) and switch.routes[5] == (1,)
        assert switch.routes[0] is switch.routes[1]  # one group per port
        assert switch.routes[9] is switch.routes.default
        assert dict(switch.routes) == {1: (0,), 5: (1,), 0: (0,), 9: (2, 3)}

    def test_reinstalling_drops_every_resolved_entry(self, sim):
        switch = self._switch(sim)
        for dst in (0, 5, 9):
            switch.routes[dst]
        switch.install_routes({7: [3]}, below={
            0: frozenset({5}), 1: frozenset({0})})
        assert dict(switch.routes) == {7: (3,)}
        assert switch.routes[5] == (0,) and switch.routes[0] == (1,)
        assert switch.routes[9] == (2, 3)  # the default stays

    def test_reinstalling_keeps_listed_entries(self, sim):
        switch = self._switch(sim)
        switch.set_route(4, [1])
        switch.routes[0]
        switch.install_routes({}, default=[3])
        assert dict(switch.routes) == {4: [1]}
        assert switch.routes[1] == (0,) and switch.routes[8] == (3,)

    def test_down_ports_are_validated(self, sim):
        switch = self._switch(sim)
        with pytest.raises(ValueError, match="no port with index 4"):
            switch.install_routes({}, below={4: frozenset({2})})


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
