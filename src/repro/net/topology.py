"""Declarative topology layer.

Fabrics are described by a :class:`TopologySpec` — a frozen, hashable
value object that parses the CLI's ``--topology preset:key=val``
spelling, renders into :class:`~repro.store.ExperimentSpec` params (so
store-backed sweeps cache topology points correctly), and builds the
runtime :class:`Network`.  Presets:

- ``"single-bottleneck"`` — N senders, one switch, one receiver.  All
  motivation and static-flow experiments (Figs. 1–15) are incast
  patterns through one multi-queue bottleneck port.
- ``"leaf-spine"`` — the paper's large-scale fabric: by default 4 leaf
  × 4 spine, 12 hosts per leaf, non-blocking, per-flow ECMP
  (Figs. 16–27).
- ``"fat-tree"`` — a k-ary fat-tree (Al-Fares et al.).
- ``"clos"`` — the parametric family: any 2- or 3-tier folded Clos
  derived from a switch radix and an oversubscription ratio,
  e.g. ``clos:tiers=3,ports=16`` is a 1024-host fat-tree.

The multi-switch presets all compile down to :class:`ClosGenerator`,
which lays out hosts/switches/links with deterministic names and ECMP
salts and then *derives* every switch's next-hop table from the
generated down-graph (down ports route to the hosts below them,
everything else ECMPs across the up ports) instead of hand-wiring
routes per preset.

:meth:`TopologySpec.build` takes *factories* for the scheduler and
marker so each congestion-managed port gets fresh instances; NIC ports
and reverse-path ports are plain FIFO with no marking.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, fields
from typing import (TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Iterable,
                    List, Optional, Sequence, Tuple, Union)

from .._specparse import parse_spec
from .sharedbuf import SharedBufferSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..ecn.base import Marker
    from ..scheduling.base import Scheduler
    from ..sim.engine import Simulator
    from .host import Host
    from .link import Link
    from .port import Port
    from .switch import Switch

# The fabric classes are imported where a fabric is built, not here:
# parsing a spec or rendering its cache key (a cache-hit sweep) must not
# load the simulator.

__all__ = [
    "Network",
    "ClosGenerator",
    "TopologySpec",
    "TOPOLOGY_PRESETS",
    "as_topology",
    "partition_groups",
]

SchedulerFactory = Callable[[], "Scheduler"]
MarkerFactory = Callable[[], "Marker"]

#: Default one-way propagation delay per hop (5 µs → ~20 µs base RTT
#: through one switch, a typical datacenter figure).
DEFAULT_LINK_DELAY = 5e-6
#: Default drop-tail capacity of congestion-managed ports, sized so ECN
#: (not loss) is the operative signal, like the deep-buffered ToR ports
#: the paper assumes.
DEFAULT_BUFFER_PACKETS = 1000
#: Default link rate (10 Gbps, the paper's fabric speed).
DEFAULT_LINK_RATE = 10e9

#: Recognized :class:`TopologySpec` preset names.
TOPOLOGY_PRESETS = ("single-bottleneck", "leaf-spine", "fat-tree", "clos")


class Network:
    """Container for a built topology.

    Ports of interest are published under *roles* (``"bottleneck"`` is
    the only role the built-in experiments use): builders call
    :meth:`register_observed` and consumers ask
    :meth:`observed_ports`, which works on any generated fabric — no
    assumption that exactly one congested port exists.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.hosts: List[Host] = []
        self.switches: List[Switch] = []
        #: The spec this network was built from (None for hand-built
        #: fabrics assembled directly from parts).
        self.spec: Optional["TopologySpec"] = None
        #: role name -> ports published under that role.
        self._observed: Dict[str, List[Port]] = {}
        #: host id -> the switch port whose link feeds that host.
        self._host_ports: Dict[int, Port] = {}

    def host(self, host_id: int) -> Host:
        return self.hosts[host_id]

    # -- observed-port roles --------------------------------------------------

    def register_observed(self, role: str, port: Port) -> None:
        """Publish ``port`` under ``role`` for reports and experiments."""
        self._observed.setdefault(role, []).append(port)

    def observed_ports(self, role: str = "bottleneck") -> List[Port]:
        """Ports published under ``role`` (empty list if none)."""
        return list(self._observed.get(role, ()))

    # -- structural accessors -------------------------------------------------

    def host_facing_port(self, host_id: int) -> Optional[Port]:
        """The switch port whose link delivers to ``host_id``.

        This is the port where downstream congestion toward that host
        shows up (the per-host "bottleneck" in converging traffic
        patterns); recorded by every builder.
        """
        return self._host_ports.get(host_id)

    def _record_host_port(self, host_id: int, port: Port) -> None:
        self._host_ports[host_id] = port

    def all_marked_ports(self) -> List[Port]:
        """Every port carrying a non-null marker (the congestion points)."""
        from ..ecn.base import NullMarker
        ports = []
        for switch in self.switches:
            for port in switch.ports:
                if not isinstance(port.marker, NullMarker):
                    ports.append(port)
        return ports


def _plain_port(sim: Simulator, link: Link, name: str,
                buffer_packets: Optional[int] = None, pool=None) -> Port:
    """A FIFO, non-marking port (host NICs and reverse paths).

    Unbounded by default: a host's transmit path backpressures the stack
    rather than dropping its own packets, and modelling that as an
    elastic queue avoids the unrealistic failure mode of a sender
    dropping its own retransmission at the local NIC.
    """
    from ..ecn.base import NullMarker
    from ..scheduling.fifo import FifoScheduler
    from .port import Port
    return Port(sim, link, FifoScheduler(1), NullMarker(),
                buffer_packets=buffer_packets, name=name, pool=pool)


def _switch_buffer(switch: Switch, spec: Optional[SharedBufferSpec]):
    """Give ``switch`` its shared memory when a spec is in effect.

    Every switch gets its *own* :class:`~repro.net.sharedbuf.SharedBuffer`
    (buffer memory is per chip, not per fabric); with no spec the builder
    behaves exactly as before — ports keep private buffers and
    ``pool=None``, so disabled runs are byte-identical to the
    pre-shared-buffer datapath.
    """
    if spec is None:
        return None
    switch.shared_buffer = spec.build(name=f"{switch.name}:sharedbuf")
    return switch.shared_buffer


def _account(buf, name: str, link: Link):
    """Per-port ledger against the switch buffer (None when disabled)."""
    if buf is None:
        return None
    return buf.port_account(name, link)


def _build_single_bottleneck(
    sim: Simulator,
    n_senders: int,
    scheduler_factory: SchedulerFactory,
    marker_factory: MarkerFactory,
    link_rate: float = DEFAULT_LINK_RATE,
    link_delay: float = DEFAULT_LINK_DELAY,
    buffer_packets: int = DEFAULT_BUFFER_PACKETS,
    shared_buffer: Optional[SharedBufferSpec] = None,
) -> Network:
    """Build an incast fabric: ``n_senders`` hosts → switch → 1 receiver.

    Host ids ``0 .. n_senders-1`` are the senders; id ``n_senders`` is the
    receiver.  The switch port feeding the receiver — the only
    multi-queue, marking port in the fabric — is published under the
    ``"bottleneck"`` role.
    """
    from .host import Host
    from .link import Link
    from .port import Port
    from .switch import Switch
    if n_senders < 1:
        raise ValueError("single-bottleneck needs at least one sender")
    network = Network(sim)
    switch = Switch(sim, name="sw0")
    network.switches.append(switch)
    hosts = [Host(sim, i) for i in range(n_senders + 1)]
    network.hosts = hosts
    receiver = hosts[n_senders]
    buf = _switch_buffer(switch, shared_buffer)

    # Bottleneck port: switch -> receiver.
    down_link = Link(sim, link_rate, link_delay, receiver, name="sw0->recv")
    bottleneck = Port(
        sim, down_link, scheduler_factory(), marker_factory(),
        buffer_packets=buffer_packets, name="sw0:bottleneck",
        pool=_account(buf, "sw0:bottleneck", down_link),
    )
    bottleneck_index = switch.add_port(bottleneck)
    switch.set_route(receiver.host_id, [bottleneck_index])
    network.register_observed("bottleneck", bottleneck)
    network._record_host_port(receiver.host_id, bottleneck)

    # Receiver NIC (carries only ACKs back into the fabric).
    recv_up = Link(sim, link_rate, link_delay, switch, name="recv->sw0")
    receiver.attach_nic(_plain_port(sim, recv_up, f"{receiver.name}:nic"))

    # Sender NICs and the switch's reverse ports toward them.
    for sender in hosts[:n_senders]:
        up_link = Link(sim, link_rate, link_delay, switch, name=f"{sender.name}->sw0")
        sender.attach_nic(_plain_port(sim, up_link, f"{sender.name}:nic"))
        back_link = Link(sim, link_rate, link_delay, sender, name=f"sw0->{sender.name}")
        back_name = f"sw0:to_{sender.name}"
        back_port = _plain_port(sim, back_link, back_name,
                                pool=_account(buf, back_name, back_link))
        back_index = switch.add_port(back_port)
        switch.set_route(sender.host_id, [back_index])
        network._record_host_port(sender.host_id, back_port)
    return network


class ClosGenerator:
    """Parametric folded-Clos generator (cf. closnet's ``ClosGenerator``).

    Resolves a *shape* from a switch radix + oversubscription ratio (or
    explicit per-tier counts) and emits the fabric as a built
    :class:`Network`:

    - ``tiers=2`` — leaf-spine: ``n_leaf = ports_per_switch`` leaves,
      ``n_spine = ports_per_switch / 2`` spines, and
      ``hosts_per_leaf = oversubscription × n_spine`` hosts under each
      leaf (so ``oversubscription=1`` is non-blocking and uses the full
      radix at the leaf).  Any of the three counts may be pinned
      explicitly instead.
    - ``tiers=3`` — generalized k-ary fat-tree with
      ``k = ports_per_switch`` pods: each pod has ``k/2`` edge and
      ``k/2`` aggregation switches, ``(k/2)²`` cores in ``k/2`` groups,
      and ``hosts_per_leaf = oversubscription × k/2`` hosts per edge
      switch (``oversubscription=1`` is the canonical ``k³/4``-host
      fat-tree).

    Naming is deterministic (``leaf{i}``/``spine{i}`` and
    ``edge{p}_{e}``/``agg{p}_{j}``/``core{j}_{m}``, with the historical
    per-tier ECMP salt bases), and routing is *derived* from the
    generated graph: each switch routes a destination out the down port
    whose subtree contains it, and ECMPs everything else across its up
    ports — which reproduces the hand-wired leaf-spine/fat-tree tables
    exactly on those shapes.
    """

    def __init__(
        self,
        ports_per_switch: int = 0,
        tiers: int = 2,
        oversubscription: float = 1.0,
        hosts_per_leaf: int = 0,
        link_rate: float = DEFAULT_LINK_RATE,
        link_delay: float = DEFAULT_LINK_DELAY,
        buffer_packets: int = DEFAULT_BUFFER_PACKETS,
        n_leaf: int = 0,
        n_spine: int = 0,
    ):
        if tiers not in (2, 3):
            raise ValueError(f"tiers must be 2 or 3, got {tiers!r}")
        if oversubscription <= 0:
            raise ValueError(
                f"oversubscription must be positive, got {oversubscription!r}")
        if ports_per_switch < 0 or hosts_per_leaf < 0 or n_leaf < 0 or n_spine < 0:
            raise ValueError("switch/host counts cannot be negative")
        self.ports_per_switch = ports_per_switch
        self.tiers = tiers
        self.oversubscription = oversubscription
        self.link_rate = link_rate
        self.link_delay = link_delay
        self.buffer_packets = buffer_packets

        if tiers == 2:
            if ports_per_switch:
                if ports_per_switch % 2:
                    raise ValueError(
                        f"2-tier Clos radix must be even, got {ports_per_switch}")
                n_spine = n_spine or ports_per_switch // 2
                n_leaf = n_leaf or ports_per_switch
            if not (n_leaf and n_spine):
                raise ValueError(
                    "2-tier Clos needs ports_per_switch or explicit "
                    "n_leaf/n_spine counts")
            hosts_per_leaf = hosts_per_leaf or _whole(
                oversubscription * n_spine, "hosts per leaf")
            if hosts_per_leaf < 1:
                raise ValueError(
                    f"each leaf needs at least one host, got {hosts_per_leaf}")
            self.n_leaf, self.n_spine = n_leaf, n_spine
            self.hosts_per_leaf = hosts_per_leaf
            self.k = 0
        else:
            k = ports_per_switch
            if n_leaf or n_spine:
                raise ValueError(
                    "3-tier Clos shape comes from ports_per_switch (the "
                    "fat-tree arity), not n_leaf/n_spine")
            if k < 2 or k % 2:
                raise ValueError(
                    f"fat-tree arity (ports_per_switch) must be an even "
                    f"integer >= 2, got {k!r}")
            half = k // 2
            hosts_per_leaf = hosts_per_leaf or _whole(
                oversubscription * half, "hosts per edge switch")
            if hosts_per_leaf < 1:
                raise ValueError(
                    f"each edge switch needs at least one host, "
                    f"got {hosts_per_leaf}")
            self.k = k
            self.hosts_per_leaf = hosts_per_leaf
            self.n_leaf = self.n_spine = 0

    # -- shape arithmetic -----------------------------------------------------

    @property
    def n_hosts(self) -> int:
        if self.tiers == 2:
            return self.n_leaf * self.hosts_per_leaf
        return self.k * (self.k // 2) * self.hosts_per_leaf

    @property
    def n_switches(self) -> int:
        if self.tiers == 2:
            return self.n_leaf + self.n_spine
        half = self.k // 2
        return self.k * half * 2 + half * half

    def describe(self) -> Dict[str, Any]:
        """Shape summary (for logs, benches and provenance)."""
        base: Dict[str, Any] = {
            "tiers": self.tiers,
            "n_hosts": self.n_hosts,
            "n_switches": self.n_switches,
            "oversubscription": self.oversubscription,
        }
        if self.tiers == 2:
            base.update(n_leaf=self.n_leaf, n_spine=self.n_spine,
                        hosts_per_leaf=self.hosts_per_leaf)
        else:
            base.update(k=self.k, hosts_per_edge=self.hosts_per_leaf)
        return base

    # -- fabric emission ------------------------------------------------------

    def build(
        self,
        sim: Simulator,
        scheduler_factory: SchedulerFactory,
        marker_factory: MarkerFactory,
        shared_buffer: Optional[SharedBufferSpec] = None,
    ) -> Network:
        """Emit the fabric as a built, fully routed :class:`Network`."""
        network = Network(sim)
        # Transient per-switch structure the route derivation reads:
        # down[s] = [(port index, child device)], up[s] = [port indices].
        down: Dict[int, List[Tuple[int, Any]]] = {}
        up: Dict[int, List[int]] = {}
        if self.tiers == 2:
            self._lay_out_leaf_spine(network, scheduler_factory,
                                     marker_factory, shared_buffer, down, up)
        else:
            self._lay_out_fat_tree(network, scheduler_factory,
                                   marker_factory, shared_buffer, down, up)
        self._derive_routes(network, down, up)
        return network

    def _managed_port_factory(self, network: Network, scheduler_factory,
                              marker_factory, shared_buffer):
        from .port import Port
        sim = network.sim
        bufs = {id(switch): _switch_buffer(switch, shared_buffer)
                for switch in network.switches}

        def managed_port(switch: Switch, link: Link, name: str) -> Port:
            return Port(sim, link, scheduler_factory(), marker_factory(),
                        buffer_packets=self.buffer_packets, name=name,
                        pool=_account(bufs[id(switch)], name, link))

        return managed_port

    def _lay_out_leaf_spine(self, network, scheduler_factory, marker_factory,
                            shared_buffer, down, up) -> None:
        from .host import Host
        from .link import Link
        from .switch import Switch
        sim = network.sim
        rate, delay = self.link_rate, self.link_delay
        hosts = [Host(sim, i) for i in range(self.n_hosts)]
        network.hosts = hosts
        leaves = [Switch(sim, name=f"leaf{i}", ecmp_salt=1000 + i)
                  for i in range(self.n_leaf)]
        spines = [Switch(sim, name=f"spine{i}", ecmp_salt=2000 + i)
                  for i in range(self.n_spine)]
        network.switches = leaves + spines
        managed_port = self._managed_port_factory(
            network, scheduler_factory, marker_factory, shared_buffer)

        # Host <-> leaf links.
        for leaf_index, leaf in enumerate(leaves):
            for slot in range(self.hosts_per_leaf):
                host = hosts[leaf_index * self.hosts_per_leaf + slot]
                up_link = Link(sim, rate, delay, leaf,
                               name=f"{host.name}->{leaf.name}")
                host.attach_nic(_plain_port(sim, up_link, f"{host.name}:nic"))
                down_link = Link(sim, rate, delay, host,
                                 name=f"{leaf.name}->{host.name}")
                port = managed_port(leaf, down_link,
                                    f"{leaf.name}:to_{host.name}")
                index = leaf.add_port(port)
                down.setdefault(id(leaf), []).append((index, host))
                network._record_host_port(host.host_id, port)

        # Leaf <-> spine links (full bipartite).
        for leaf in leaves:
            for spine in spines:
                up_link = Link(sim, rate, delay, spine,
                               name=f"{leaf.name}->{spine.name}")
                up_index = leaf.add_port(
                    managed_port(leaf, up_link, f"{leaf.name}:to_{spine.name}"))
                up.setdefault(id(leaf), []).append(up_index)
                down_link = Link(sim, rate, delay, leaf,
                                 name=f"{spine.name}->{leaf.name}")
                down_index = spine.add_port(
                    managed_port(spine, down_link,
                                 f"{spine.name}:to_{leaf.name}"))
                down.setdefault(id(spine), []).append((down_index, leaf))

    def _lay_out_fat_tree(self, network, scheduler_factory, marker_factory,
                          shared_buffer, down, up) -> None:
        from .host import Host
        from .link import Link
        from .switch import Switch
        sim = network.sim
        rate, delay = self.link_rate, self.link_delay
        k, half, h = self.k, self.k // 2, self.hosts_per_leaf
        hosts_per_pod = half * h
        hosts = [Host(sim, i) for i in range(self.n_hosts)]
        network.hosts = hosts
        edges = [[Switch(sim, name=f"edge{p}_{e}", ecmp_salt=3000 + p * half + e)
                  for e in range(half)] for p in range(k)]
        aggs = [[Switch(sim, name=f"agg{p}_{j}", ecmp_salt=4000 + p * half + j)
                 for j in range(half)] for p in range(k)]
        cores = [[Switch(sim, name=f"core{j}_{m}", ecmp_salt=5000 + j * half + m)
                  for m in range(half)] for j in range(half)]
        network.switches = (
            [s for pod in edges for s in pod]
            + [s for pod in aggs for s in pod]
            + [s for group in cores for s in group]
        )
        managed_port = self._managed_port_factory(
            network, scheduler_factory, marker_factory, shared_buffer)

        # Host <-> edge links.
        for pod in range(k):
            for e in range(half):
                edge_switch = edges[pod][e]
                for slot in range(h):
                    host = hosts[pod * hosts_per_pod + e * h + slot]
                    up_link = Link(sim, rate, delay, edge_switch,
                                   name=f"{host.name}->{edge_switch.name}")
                    host.attach_nic(
                        _plain_port(sim, up_link, f"{host.name}:nic"))
                    down_link = Link(sim, rate, delay, host,
                                     name=f"{edge_switch.name}->{host.name}")
                    port = managed_port(edge_switch, down_link,
                                        f"{edge_switch.name}:to_{host.name}")
                    index = edge_switch.add_port(port)
                    down.setdefault(id(edge_switch), []).append((index, host))
                    network._record_host_port(host.host_id, port)

        # Edge <-> aggregation links (full bipartite within a pod).
        for pod in range(k):
            for e in range(half):
                for j in range(half):
                    edge_switch, agg_switch = edges[pod][e], aggs[pod][j]
                    up_link = Link(sim, rate, delay, agg_switch,
                                   name=f"{edge_switch.name}->{agg_switch.name}")
                    up_index = edge_switch.add_port(
                        managed_port(edge_switch, up_link,
                                     f"{edge_switch.name}:to_{agg_switch.name}"))
                    up.setdefault(id(edge_switch), []).append(up_index)
                    down_link = Link(sim, rate, delay, edge_switch,
                                     name=f"{agg_switch.name}->{edge_switch.name}")
                    down_index = agg_switch.add_port(
                        managed_port(agg_switch, down_link,
                                     f"{agg_switch.name}:to_{edge_switch.name}"))
                    down.setdefault(id(agg_switch), []).append(
                        (down_index, edge_switch))

        # Aggregation <-> core links: agg j of every pod connects to
        # core group j.
        for j in range(half):
            for m in range(half):
                core_switch = cores[j][m]
                for pod in range(k):
                    agg_switch = aggs[pod][j]
                    up_link = Link(sim, rate, delay, core_switch,
                                   name=f"{agg_switch.name}->{core_switch.name}")
                    up_index = agg_switch.add_port(
                        managed_port(agg_switch, up_link,
                                     f"{agg_switch.name}:to_{core_switch.name}"))
                    up.setdefault(id(agg_switch), []).append(up_index)
                    down_link = Link(sim, rate, delay, agg_switch,
                                     name=f"{core_switch.name}->{agg_switch.name}")
                    down_index = core_switch.add_port(
                        managed_port(core_switch, down_link,
                                     f"{core_switch.name}:to_{agg_switch.name}"))
                    down.setdefault(id(core_switch), []).append(
                        (down_index, agg_switch))

    @staticmethod
    def _derive_routes(network: Network, down, up) -> None:
        """Hand each switch the tables its routes resolve from.

        A destination below one of a switch's down ports routes out that
        port; every other destination ECMPs across the switch's up ports
        (the table's default group), and a top-tier switch has no
        default: an unknown destination ends there in "no route to
        host".  A down port gets the frozenset of hosts beneath it, one
        set per distinct subtree, and entries appear only as lookups
        resolve them (:class:`~repro.net.switch.RouteTable`).
        """
        from .host import Host
        memo: Dict[int, FrozenSet[int]] = {}
        shared: Dict[FrozenSet[int], FrozenSet[int]] = {}

        def downstream(device) -> FrozenSet[int]:
            if isinstance(device, Host):
                return frozenset((device.host_id,))
            key = id(device)
            if key not in memo:
                hosts = frozenset().union(*(
                    downstream(child) for _index, child in down.get(key, ())))
                memo[key] = shared.setdefault(hosts, hosts)
            return memo[key]

        for switch in network.switches:
            switch.install_routes({}, default=up.get(id(switch)), below={
                index: downstream(child)
                for index, child in down.get(id(switch), ())})


def _whole(value: float, what: str) -> int:
    """Round ``value`` to an int, rejecting non-integral shape math."""
    rounded = round(value)
    if abs(value - rounded) > 1e-9:
        raise ValueError(
            f"oversubscription gives a non-integral number of {what} "
            f"({value!r}); adjust the ratio or pin the count explicitly")
    return int(rounded)


# -- declarative spec ---------------------------------------------------------

#: Integer-valued TopologySpec fields (everything else but ``preset``
#: is a float).
_INT_FIELDS = frozenset({"tiers", "ports", "n_leaf", "n_spine",
                         "hosts_per_leaf", "k", "senders", "buffer_packets"})
_FLOAT_FIELDS = frozenset({"oversub", "link_rate", "link_delay"})
_CONVERTERS = {**dict.fromkeys(_INT_FIELDS, int),
               **dict.fromkeys(_FLOAT_FIELDS, float)}
#: CLI spellings accepted for spec fields.
_FIELD_ALIASES = {
    "ports_per_switch": "ports",
    "oversubscription": "oversub",
    "leaf": "n_leaf",
    "spine": "n_spine",
    "hosts": "hosts_per_leaf",
}
#: Which shape fields each preset may pin (physics fields — link_rate,
#: link_delay, buffer_packets — are always allowed).
_PRESET_SHAPE_FIELDS = {
    "single-bottleneck": frozenset({"senders"}),
    "leaf-spine": frozenset({"n_leaf", "n_spine", "hosts_per_leaf"}),
    "fat-tree": frozenset({"k"}),
    "clos": frozenset({"tiers", "ports", "oversub", "n_leaf", "n_spine",
                       "hosts_per_leaf"}),
}


@dataclass(frozen=True)
class TopologySpec:
    """Declarative fabric description (the ``--topology`` flag's value).

    All shape fields default to 0 / 0.0 meaning "unset": the preset (or
    the caller's :class:`~repro.experiments.scale.ScaleProfile`) fills
    them at build time, so a default spec is *exactly* the historical
    fabric and hashes to the historical run-store key.
    """

    #: One of :data:`TOPOLOGY_PRESETS`.
    preset: str = "leaf-spine"
    #: Clos stage count (``clos`` preset; 2 = leaf-spine, 3 = fat-tree).
    tiers: int = 0
    #: Switch radix the shape is derived from (``clos`` preset).
    ports: int = 0
    #: Host-to-uplink bandwidth ratio at the leaf tier (``clos``).
    oversub: float = 0.0
    #: Explicit tier counts (``leaf-spine``/``clos``).
    n_leaf: int = 0
    n_spine: int = 0
    hosts_per_leaf: int = 0
    #: Fat-tree arity (``fat-tree`` preset).
    k: int = 0
    #: Sender count (``single-bottleneck`` preset).
    senders: int = 0
    #: Physics overrides (0 = preset/profile default).
    link_rate: float = 0.0
    link_delay: float = 0.0
    buffer_packets: int = 0

    def __post_init__(self):
        if self.preset not in TOPOLOGY_PRESETS:
            raise ValueError(f"unknown topology preset {self.preset!r}; "
                             f"choose from {TOPOLOGY_PRESETS}")
        allowed = _PRESET_SHAPE_FIELDS[self.preset]
        shape_fields = (_INT_FIELDS | _FLOAT_FIELDS) - {
            "link_rate", "link_delay", "buffer_packets"}
        for name in sorted(shape_fields):
            value = getattr(self, name)
            if value and name not in allowed:
                raise ValueError(
                    f"field {name!r} does not apply to preset "
                    f"{self.preset!r} (allowed: {sorted(allowed)})")
            if value < 0:
                raise ValueError(f"{name} cannot be negative, got {value!r}")
        if self.link_rate < 0 or self.link_delay < 0 or self.buffer_packets < 0:
            raise ValueError("physics overrides cannot be negative")
        if self.tiers and self.tiers not in (2, 3):
            raise ValueError(f"tiers must be 2 or 3, got {self.tiers!r}")
        if self.preset == "fat-tree" and self.k and (self.k < 2 or self.k % 2):
            raise ValueError(
                f"fat-tree arity k must be an even integer >= 2, got {self.k}")
        if self.preset == "clos":
            # Clos shapes resolve entirely from the spec (no profile
            # defaults), so bad radix/oversubscription math surfaces at
            # parse time, not at build time.
            self.generator()

    # -- canonical forms ------------------------------------------------------

    def to_param(self) -> Tuple[Tuple[str, Any], ...]:
        """Canonical nested-tuple form for ``ExperimentSpec`` params.

        Only set (non-default) fields are included, so two spellings of
        the same fabric hash identically and a default spec renders to
        just its preset name.
        """
        items = [("preset", self.preset)]
        for key, value in sorted(asdict(self).items()):
            if key != "preset" and value:
                items.append((key, value))
        return tuple(items)

    @classmethod
    def from_param(cls, pairs: Iterable[Sequence[Any]]) -> "TopologySpec":
        """Rebuild a spec from :meth:`to_param` output (tuples or the
        JSON lists a stored record round-trips them into)."""
        data = {str(key): value for key, value in pairs}
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown TopologySpec fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def parse(cls, text: str) -> "TopologySpec":
        """Parse the CLI spelling ``preset:key=value,key=value``.

        Examples: ``leaf-spine``, ``fat-tree:k=6``,
        ``clos:tiers=3,ports=16`` (a 1024-host fat-tree),
        ``clos:tiers=2,ports=16,oversub=2``.  Aliases:
        ``ports_per_switch``→``ports``, ``oversubscription``→``oversub``,
        ``leaf``/``spine``/``hosts`` for the explicit tier counts.
        """
        preset, kwargs = parse_spec(text, "topology", _CONVERTERS,
                                    _FIELD_ALIASES)
        try:
            return cls(preset=preset, **kwargs)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad topology spec {text!r}: {exc}") from None

    # -- cache-key rendering --------------------------------------------------

    @property
    def is_default(self) -> bool:
        """True when this spec is exactly the historical default fabric."""
        return self.preset == "leaf-spine" and len(self.to_param()) == 1

    def cache_params(self) -> Dict[str, Any]:
        """Topology contribution to an :class:`ExperimentSpec`'s params.

        Default presets render to the *historical* param shapes
        (``{"topology": "leaf-spine"}``,
        ``{"topology": "fat-tree", "fat_tree_k": k}``, …), so every
        pre-redesign run-store key is untouched; only genuinely new
        fabrics add a ``topology_params`` entry.
        """
        extras = dict(self.to_param())
        extras.pop("preset", None)
        if not extras:
            return {"topology": self.preset}
        if self.preset == "fat-tree" and set(extras) == {"k"}:
            return {"topology": "fat-tree", "fat_tree_k": self.k}
        return {"topology": self.preset, "topology_params": self.to_param()}

    # -- build-time resolution ------------------------------------------------

    @property
    def base_rtt_hops(self) -> int:
        """One-way switch-port hops on the longest host-to-host path
        (what the schemes' RTT-derived thresholds scale with)."""
        if self.preset == "single-bottleneck":
            return 2
        if self.preset == "fat-tree" or (self.preset == "clos" and
                                         self.tiers == 3):
            return 6
        return 4

    def generator(
        self,
        default_fabric: Optional[Tuple[int, int, int]] = None,
        link_rate: float = DEFAULT_LINK_RATE,
        link_delay: float = DEFAULT_LINK_DELAY,
        buffer_packets: int = DEFAULT_BUFFER_PACKETS,
    ) -> ClosGenerator:
        """The :class:`ClosGenerator` this spec resolves to.

        ``default_fabric`` is a ``(n_leaf, n_spine, hosts_per_leaf)``
        triple (a :class:`ScaleProfile`'s fabric) filling unset
        leaf-spine counts; physics arguments fill unset overrides.
        """
        if self.preset == "single-bottleneck":
            raise ValueError(
                "single-bottleneck is not a Clos; use spec.build()")
        rate = self.link_rate or link_rate
        delay = self.link_delay or link_delay
        buffers = self.buffer_packets or buffer_packets
        if self.preset == "fat-tree":
            return ClosGenerator(ports_per_switch=self.k or 4, tiers=3,
                                 link_rate=rate, link_delay=delay,
                                 buffer_packets=buffers)
        if self.preset == "leaf-spine":
            fabric = default_fabric or (4, 4, 12)
            return ClosGenerator(
                tiers=2,
                n_leaf=self.n_leaf or fabric[0],
                n_spine=self.n_spine or fabric[1],
                hosts_per_leaf=self.hosts_per_leaf or fabric[2],
                link_rate=rate, link_delay=delay, buffer_packets=buffers)
        return ClosGenerator(
            ports_per_switch=self.ports,
            tiers=self.tiers or 2,
            oversubscription=self.oversub or 1.0,
            hosts_per_leaf=self.hosts_per_leaf,
            n_leaf=self.n_leaf, n_spine=self.n_spine,
            link_rate=rate, link_delay=delay, buffer_packets=buffers)

    def n_hosts(self,
                default_fabric: Optional[Tuple[int, int, int]] = None,
                default_senders: int = 0) -> int:
        """Host count of the built fabric (without building it)."""
        if self.preset == "single-bottleneck":
            return (self.senders or default_senders) + 1
        return self.generator(default_fabric=default_fabric).n_hosts

    def build(
        self,
        sim: Simulator,
        scheduler_factory: SchedulerFactory,
        marker_factory: MarkerFactory,
        shared_buffer: Optional[SharedBufferSpec] = None,
        default_fabric: Optional[Tuple[int, int, int]] = None,
        default_senders: int = 0,
        link_rate: float = DEFAULT_LINK_RATE,
        link_delay: float = DEFAULT_LINK_DELAY,
        buffer_packets: int = DEFAULT_BUFFER_PACKETS,
    ) -> Network:
        """Build the fabric this spec describes.

        ``default_fabric``/``default_senders`` and the physics arguments
        fill any unset fields (they are the *caller's* defaults — a
        profile's fabric triple, an incast runner's sender count and
        link rate); explicit spec fields always win.
        """
        if self.preset == "single-bottleneck":
            n_senders = self.senders or default_senders
            if n_senders < 1:
                raise ValueError(
                    "single-bottleneck needs a sender count (spec field "
                    "'senders' or the runner's flow layout)")
            network = _build_single_bottleneck(
                sim, n_senders, scheduler_factory, marker_factory,
                link_rate=self.link_rate or link_rate,
                link_delay=self.link_delay or link_delay,
                buffer_packets=self.buffer_packets or buffer_packets,
                shared_buffer=shared_buffer)
        else:
            generator = self.generator(
                default_fabric=default_fabric, link_rate=link_rate,
                link_delay=link_delay, buffer_packets=buffer_packets)
            network = generator.build(sim, scheduler_factory, marker_factory,
                                      shared_buffer=shared_buffer)
        network.spec = self
        return network


def as_topology(value: Union[str, TopologySpec, None]) -> Optional[TopologySpec]:
    """Normalize a runner's ``topology`` argument to a spec (or None).

    Accepts a built spec, a preset name / ``preset:key=val`` string
    (the legacy ``topology="fat-tree"`` string arguments), or None.
    """
    if value is None or isinstance(value, TopologySpec):
        return value
    return TopologySpec.parse(value)


# -- shard partitioning -------------------------------------------------------

_POD_EDGE_NAME = re.compile(r"^edge(\d+)_\d+$")


def partition_groups(network: Network) -> List[List[Switch]]:
    """Host-facing switches grouped along natural shard-cut boundaries.

    The unit of fabric partitioning (:mod:`repro.sim.shard`) is the set
    of hosts behind one leaf — every host's only attachment point is its
    leaf's downlink, so cutting above the leaves never severs a host
    from its own shard.  On a 3-tier Clos the :class:`ClosGenerator`
    names edge switches ``edge{pod}_{i}``; edges of one pod are grouped
    together so the cut falls on the agg↔core links (the pod boundary)
    rather than inside a pod.  Any other host-facing switch (2-tier
    leaves, hand-wired fabrics) is its own group.

    Groups are returned in ``network.switches`` order, which is the
    generator's construction order — every process that builds the same
    fabric computes the identical grouping.
    """
    order = {id(switch): index
             for index, switch in enumerate(network.switches)}
    facing: List[Switch] = []
    seen: set = set()
    for host in network.hosts:
        nic = host.nic
        leaf = None if nic is None or nic.link is None else nic.link.dst
        if leaf is None or id(leaf) not in order:
            raise ValueError(
                f"{host.name} has no switch-facing uplink; only fully "
                "wired fabrics can be partitioned")
        if id(leaf) not in seen:
            seen.add(id(leaf))
            facing.append(leaf)
    facing.sort(key=lambda switch: order[id(switch)])
    grouped: Dict[str, List[Switch]] = {}
    keys: List[str] = []
    for switch in facing:
        match = _POD_EDGE_NAME.match(switch.name)
        key = f"pod{match.group(1)}" if match else switch.name
        if key not in grouped:
            grouped[key] = []
            keys.append(key)
        grouped[key].append(switch)
    return [grouped[key] for key in keys]
