"""The declarative topology layer: TopologySpec, ClosGenerator, roles.

Covers the spec grammar (parse/aliases/errors), the cache-key rendering
contract (default presets keep their historical param shapes), Clos
shape arithmetic across the 48 -> 1024 host ladder, derived-route
equivalence with the hand-wired fabrics, and the observed-port role API.
"""

from __future__ import annotations

import pytest

from repro.ecn.base import NullMarker
from repro.experiments.families import SCALE_LADDER
from repro.net.graph import validate_routes
from repro.net.host import Host
from repro.net.switch import Switch
from repro.net.topology import (ClosGenerator, TOPOLOGY_PRESETS,
                                TopologySpec, as_topology)
from repro.core.pmsb import PmsbMarker
from repro.scheduling.dwrr import DwrrScheduler
from repro.scheduling.fifo import FifoScheduler
from repro.sim.engine import Simulator


def _sched():
    return DwrrScheduler(2)


def _marker():
    return PmsbMarker(12.0)


def _build(spec_text, **kwargs):
    sim = Simulator()
    return TopologySpec.parse(spec_text).build(sim, _sched, _marker,
                                               **kwargs)


class TestParse:
    def test_bare_preset(self):
        spec = TopologySpec.parse("leaf-spine")
        assert spec == TopologySpec()
        assert spec.is_default

    def test_key_values_and_aliases(self):
        spec = TopologySpec.parse(
            "clos:tiers=2,ports_per_switch=16,oversubscription=2")
        assert spec == TopologySpec.parse("clos:tiers=2,ports=16,oversub=2")
        assert spec.ports == 16 and spec.oversub == 2.0

    def test_leaf_spine_count_aliases(self):
        spec = TopologySpec.parse("leaf-spine:leaf=2,spine=2,hosts=3")
        assert (spec.n_leaf, spec.n_spine, spec.hosts_per_leaf) == (2, 2, 3)

    def test_presets_constant_is_exported(self):
        assert set(TOPOLOGY_PRESETS) == {
            "single-bottleneck", "leaf-spine", "fat-tree", "clos"}

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown topology preset"):
            TopologySpec.parse("torus")

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown field 'radix'"):
            TopologySpec.parse("clos:radix=16")

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="expected key=value"):
            TopologySpec.parse("clos:ports")

    def test_non_numeric_value(self):
        with pytest.raises(ValueError, match="needs a number"):
            TopologySpec.parse("clos:ports=many")

    def test_field_preset_mismatch(self):
        with pytest.raises(ValueError, match="does not apply to preset"):
            TopologySpec.parse("fat-tree:ports=16")

    def test_clos_shape_errors_surface_at_parse_time(self):
        with pytest.raises(ValueError, match="non-integral"):
            TopologySpec.parse("clos:tiers=2,ports=8,oversub=1.3")
        with pytest.raises(ValueError, match="radix must be even"):
            TopologySpec.parse("clos:tiers=2,ports=7")

    def test_odd_fat_tree_arity(self):
        with pytest.raises(ValueError, match="even integer"):
            TopologySpec.parse("fat-tree:k=3")

    def test_bad_tiers(self):
        with pytest.raises(ValueError, match="tiers must be 2 or 3"):
            TopologySpec.parse("clos:tiers=4,ports=8")

    def test_as_topology_normalizes(self):
        assert as_topology(None) is None
        spec = TopologySpec.parse("fat-tree:k=4")
        assert as_topology(spec) is spec
        assert as_topology("fat-tree:k=4") == spec


class TestCanonicalForms:
    def test_to_param_drops_unset_fields(self):
        assert TopologySpec().to_param() == (("preset", "leaf-spine"),)
        spec = TopologySpec.parse("clos:tiers=2,ports=8")
        assert spec.to_param() == (
            ("preset", "clos"), ("ports", 8), ("tiers", 2))

    def test_from_param_round_trip(self):
        spec = TopologySpec.parse("clos:tiers=3,ports=4,oversub=2")
        assert TopologySpec.from_param(spec.to_param()) == spec
        # JSON round-trips tuples into lists.
        as_lists = [list(pair) for pair in spec.to_param()]
        assert TopologySpec.from_param(as_lists) == spec

    def test_from_param_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown TopologySpec fields"):
            TopologySpec.from_param((("preset", "clos"), ("radix", 8)))

    def test_spec_is_hashable(self):
        assert len({TopologySpec(), TopologySpec(),
                    TopologySpec.parse("fat-tree:k=4")}) == 2

    def test_cache_params_default_presets_keep_historical_shape(self):
        assert TopologySpec().cache_params() == {"topology": "leaf-spine"}
        assert TopologySpec.parse("fat-tree:k=6").cache_params() == {
            "topology": "fat-tree", "fat_tree_k": 6}
        assert TopologySpec.parse("single-bottleneck").cache_params() == {
            "topology": "single-bottleneck"}

    def test_cache_params_new_fabrics_carry_full_spec(self):
        spec = TopologySpec.parse("clos:tiers=2,ports=16,oversub=2")
        params = spec.cache_params()
        assert params["topology"] == "clos"
        assert params["topology_params"] == spec.to_param()


class TestClosShapes:
    @pytest.mark.parametrize("text,hosts,switches", [
        ("clos:tiers=2,ports=8,oversub=1.5", 48, 12),
        ("clos:tiers=2,ports=16", 128, 24),
        ("clos:tiers=2,ports=16,oversub=2", 256, 24),
        ("clos:tiers=2,ports=32", 512, 48),
        ("clos:tiers=3,ports=16", 1024, 320),
    ])
    def test_ladder_shape_math(self, text, hosts, switches):
        generator = TopologySpec.parse(text).generator()
        assert generator.n_hosts == hosts
        assert generator.n_switches == switches
        assert TopologySpec.parse(text).n_hosts() == hosts

    def test_tiers2_explicit_counts_win(self):
        generator = ClosGenerator(tiers=2, n_leaf=2, n_spine=2,
                                  hosts_per_leaf=3)
        assert generator.n_hosts == 6 and generator.n_switches == 4

    def test_tiers3_rejects_tier_counts(self):
        with pytest.raises(ValueError, match="not n_leaf/n_spine"):
            ClosGenerator(ports_per_switch=4, tiers=3, n_leaf=2)

    def test_describe_names_the_shape(self):
        described = TopologySpec.parse(
            "clos:tiers=3,ports=16").generator().describe()
        assert described["n_hosts"] == 1024
        assert described["k"] == 16

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ClosGenerator(tiers=2, n_leaf=-1)


class TestDerivedRoutes:
    def test_leaf_spine_routes_match_hand_wired_tables(self):
        network = _build("leaf-spine:leaf=2,spine=2,hosts=3")
        leaf0, leaf1, spine0, spine1 = network.switches
        # Down ports 0..2 direct, up ports 3..4 shared for remote hosts.
        assert leaf0.routes[0] == (0,)
        assert leaf0.routes[2] == (2,)
        assert leaf0.routes[3] == (3, 4)
        assert leaf0.routes[3] is leaf0.routes[5]
        assert leaf1.routes[3] == (0,)
        assert leaf1.routes[0] == (3, 4)
        # Spines are all-down: one direct port per leaf's hosts.
        assert spine0.routes[0] == (0,) and spine0.routes[2] == (0,)
        assert spine0.routes[3] == (1,)
        assert spine1.routes[5] == (1,)

    def test_generated_clos_routes_are_valid(self):
        network = _build("clos:tiers=2,ports=8,oversub=1.5")
        validate_routes(network)

    def test_generated_fat_tree_routes_are_valid(self):
        network = _build("clos:tiers=3,ports=4")
        validate_routes(network)

    def test_broken_tables_fail_validation(self):
        network = _build("fat-tree:k=4")
        core = network.switches[-1]
        # Re-install the core's down-port host sets without host 5.
        core.install_routes({}, below={
            group[0]: hosts - {5} for group, hosts in core.routes.below})
        with pytest.raises(ValueError,
                           match=f"{core.name} has no route to host 5"):
            validate_routes(network)
        network = _build("fat-tree:k=4")
        edge = network.switches[0]
        edge.install_routes({}, default=[0])  # port 0 faces host 0
        with pytest.raises(ValueError,
                           match=f"{edge.name} port .* routes host 2 into host 0"):
            validate_routes(network)

    def test_network_records_its_spec(self):
        spec = TopologySpec.parse("fat-tree:k=4")
        sim = Simulator()
        network = spec.build(sim, _sched, _marker)
        assert network.spec == spec


def _expanded_tables(network):
    """``{switch name: (down table, up group)}`` — expanded over every
    host, the table the generator installed before a default group
    stood in for the upward entries: a host below a down port routes
    out that port, every other host across all up ports.  Tiers are
    read off the link graph (breadth-first upward from the hosts), not
    off the generator's bookkeeping."""
    tier = {host.name: 0 for host in network.hosts}
    frontier = [(host, [host.nic]) for host in network.hosts]
    while frontier:
        above = []
        for device, ports in frontier:
            for port in ports:
                peer = port.link.dst
                if peer.name not in tier:
                    tier[peer.name] = tier[device.name] + 1
                    above.append((peer, peer.ports))
        frontier = above

    below = {}

    def hosts_below(device):
        if isinstance(device, Host):
            return [device.host_id]
        if device.name not in below:
            below[device.name] = [
                host_id for port in device.ports
                if tier[port.link.dst.name] < tier[device.name]
                for host_id in hosts_below(port.link.dst)]
        return below[device.name]

    tables = {}
    for switch in network.switches:
        down, up = {}, []
        for index, port in enumerate(switch.ports):
            if tier[port.link.dst.name] > tier[switch.name]:
                up.append(index)
            else:
                down.update(dict.fromkeys(hosts_below(port.link.dst),
                                          (index,)))
        tables[switch.name] = down, tuple(up)
    return tables


class TestRouteOracle:
    """``switch.routes[dst]`` against the fully expanded table."""

    FABRICS = ["leaf-spine:leaf=2,spine=2,hosts=3", "fat-tree:k=4",
               "clos:tiers=3,ports=8,oversub=3"]
    FABRICS += [text for text, _n_hosts in SCALE_LADDER]

    @pytest.mark.parametrize("spec_text", FABRICS)
    def test_every_switch_host_pair(self, spec_text):
        network = TopologySpec.parse(spec_text).build(
            Simulator(), lambda: FifoScheduler(1), NullMarker)
        hosts = [host.host_id for host in network.hosts]
        expanded = _expanded_tables(network)
        for switch in network.switches:
            down, up = expanded[switch.name]
            assert len(switch.routes) == 0  # nothing installed before the first lookup
            assert up or len(down) == len(hosts)
            shared = {}
            for dst in hosts:
                group = switch.routes[dst]
                assert group == down.get(dst, up), (switch.name, dst)
                # One object per distinct group, however it was reached.
                assert shared.setdefault(group, group) is group
        validate_routes(network)
        # The walk perfbench/inputs.py sizes its inputs with: follow the
        # first ECMP member from the source's NIC until a host.
        reached = {}

        def walk(device, dst):
            if isinstance(device, Host):
                return device.host_id
            key = (device.name, dst)
            if key not in reached:
                reached[key] = walk(
                    device.ports[device.routes[dst][0]].link.dst, dst)
            return reached[key]

        for first_hop in {src.nic.link.dst for src in network.hosts}:
            assert all(walk(first_hop, dst) == dst for dst in hosts)


class TestObservedPorts:
    def test_single_bottleneck_publishes_role(self):
        network = _build("single-bottleneck:senders=3")
        ports = network.observed_ports("bottleneck")
        assert len(ports) == 1
        assert ports[0].name == "sw0:bottleneck"
        # The list is a copy — mutating it does not corrupt the network.
        ports.clear()
        assert network.observed_ports("bottleneck")

    def test_unknown_role_is_empty(self):
        network = _build("single-bottleneck:senders=2")
        assert network.observed_ports("victim") == []

    def test_register_observed_appends(self):
        network = _build("leaf-spine:leaf=2,spine=2,hosts=3")
        assert network.observed_ports("bottleneck") == []
        port = network.host_facing_port(0)
        network.register_observed("bottleneck", port)
        assert network.observed_ports("bottleneck") == [port]

    def test_host_facing_port_covers_every_host(self):
        network = _build("clos:tiers=2,ports=8,oversub=1.5")
        for host in network.hosts:
            port = network.host_facing_port(host.host_id)
            assert port is not None
            assert port.link.dst is host


class TestSpecBuild:
    def test_single_bottleneck_needs_senders(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="sender count"):
            TopologySpec.parse("single-bottleneck").build(sim, _sched,
                                                          _marker)

    def test_default_senders_fills_unset(self):
        network = _build("single-bottleneck", default_senders=4)
        assert len(network.hosts) == 5

    def test_spec_senders_beat_default(self):
        network = _build("single-bottleneck:senders=2", default_senders=9)
        assert len(network.hosts) == 3

    def test_default_fabric_fills_leaf_spine(self):
        network = _build("leaf-spine", default_fabric=(2, 2, 3))
        assert len(network.hosts) == 6
        assert [s.name for s in network.switches] == [
            "leaf0", "leaf1", "spine0", "spine1"]

    def test_physics_overrides(self):
        network = _build("single-bottleneck:senders=1,link_rate=1e9,"
                         "buffer_packets=7")
        port = network.observed_ports("bottleneck")[0]
        assert port.link.bandwidth == 1e9
        assert port.buffer_packets == 7


class TestProcessDefault:
    def test_topology_enabled_resolves_default(self, small_incast):
        """``RunConfig.topology`` is honoured; an explicit argument wins."""
        from repro.store.spec import RunConfig

        def fabric_of(*args, **kwargs):
            return small_incast(*args, **kwargs).network.spec

        spec = TopologySpec.parse("fat-tree:k=4")
        config = RunConfig(topology=spec)
        assert fabric_of().preset == "single-bottleneck"
        assert fabric_of(config) is spec
        explicit = TopologySpec()
        assert fabric_of(config, topology=explicit) is explicit
        assert fabric_of(config, topology="leaf-spine").preset == "leaf-spine"


class TestInstallRoutes:
    def test_bulk_install_freezes_shared_groups(self):
        sim = Simulator()
        network = _build("leaf-spine:leaf=2,spine=2,hosts=3")
        switch = network.switches[0]
        group = [3, 4]
        switch.install_routes({0: group, 1: group})
        assert switch.routes[0] == (3, 4)
        assert switch.routes[0] is switch.routes[1]

    def test_bulk_install_validates_port_indices(self):
        switch = Switch(Simulator(), name="lone")
        with pytest.raises((IndexError, ValueError)):
            switch.install_routes({0: [5]})
