"""Output-queued switch with ECMP forwarding.

A switch is a set of output :class:`~repro.net.port.Port` objects plus a
route table mapping destination host ids to candidate port indices.  When
several candidate ports exist (leaf→spine uplinks) the switch picks one by
hashing the flow id — per-flow ECMP, so a flow never reorders across
paths.

Packet-to-queue classification models DSCP-based service isolation: the
default classifier maps ``packet.service`` onto a queue index modulo the
port's queue count, matching how operators pin services to switch queues.
"""

from __future__ import annotations

from typing import (AbstractSet, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from ..sim.engine import Simulator
from ..sim.rng import stable_hash
from .packet import Packet
from .port import Port

__all__ = ["Switch"]

#: Signature of queue classifiers: (packet, port) -> queue index.
Classifier = Callable[[Packet, Port], int]


def service_classifier(packet: Packet, port: Port) -> int:
    """Default DSCP-style classification: service id modulo queue count."""
    return packet.service % port.n_queues


class RouteTable(dict):
    """``dst host id -> ECMP group``, resolved on first lookup.

    ``table[dst]`` is the lookup for every reachable destination.  A Clos
    switch lists nothing up front: a destination's first lookup finds
    the down port whose host set (:attr:`below`) holds it, else takes
    :attr:`default` (its uplinks), and stores the group, so only that
    first lookup runs Python code.  Without either a miss is the plain
    ``KeyError`` of a hand-wired table.
    """

    #: Group for every destination neither listed nor below a down port.
    default: Optional[Sequence[int]] = None
    #: ``(group, hosts)`` per down port: ``hosts`` answers ``in``.
    below: Tuple[Tuple[Sequence[int], AbstractSet[int]], ...] = ()

    def __missing__(self, dst_host: int) -> Sequence[int]:
        for group, hosts in self.below:
            if dst_host in hosts:
                break
        else:
            group = self.default
            if group is None:
                raise KeyError(dst_host)
        self[dst_host] = group
        return group


class Switch:
    """An output-queued multi-port switch."""

    __slots__ = ("sim", "name", "ports", "routes", "classifier", "ecmp_salt",
                 "forwarded", "_ecmp_cache", "shared_buffer")

    def __init__(
        self,
        sim: Simulator,
        name: str = "switch",
        classifier: Optional[Classifier] = None,
        ecmp_salt: int = 0,
    ):
        self.sim = sim
        self.name = name
        self.ports: List[Port] = []
        #: dst host id -> candidate output port indices (ECMP group).
        #: Values are lists (``set_route``) or shared tuples
        #: (``install_routes``); forwarding only ever indexes them.
        self.routes = RouteTable()
        self.classifier = classifier if classifier is not None else service_classifier
        #: Per-switch hash salt so different switches spread flows
        #: independently (as real switches' hash seeds do).
        self.ecmp_salt = ecmp_salt
        self.forwarded = 0
        #: The switch-wide :class:`~repro.net.sharedbuf.SharedBuffer`
        #: this chip's ports draw from, set by the topology builders
        #: when a shared-buffer spec is in effect (None = private
        #: per-port buffers only).
        self.shared_buffer = None
        #: (flow_id, dst) -> chosen port index.  The hash is pure, so
        #: memoizing it keeps the per-packet hot path to one dict lookup.
        self._ecmp_cache: Dict[tuple, int] = {}

    def add_port(self, port: Port) -> int:
        """Register an output port, returning its index."""
        self.ports.append(port)
        return len(self.ports) - 1

    def set_route(self, dst_host: int, port_indices: List[int]) -> None:
        """Install the ECMP group used to reach ``dst_host``."""
        self.routes[dst_host] = list(self._checked_group(port_indices))
        # Route changes invalidate memoized path choices.
        self._ecmp_cache.clear()

    def _checked_group(self, group: Sequence[int]) -> tuple:
        if not group:
            raise ValueError("a route needs at least one port")
        for index in group:
            if not 0 <= index < len(self.ports):
                raise ValueError(f"{self.name}: no port with index {index}")
        return tuple(group)

    def install_routes(self, routes: Mapping[int, Sequence[int]],
                       default: Optional[Sequence[int]] = None,
                       below: Optional[Mapping[int, AbstractSet[int]]] = None,
                       ) -> None:
        """Bulk-install ECMP groups (the topology generator's path).

        Semantically ``set_route`` per destination, but each *distinct*
        group object is validated and frozen to a tuple once and then
        shared by every destination that references it.  ``below`` (down
        port index -> hosts beneath it) and ``default`` (a Clos switch's
        uplinks) replace the tables :class:`RouteTable` resolves from,
        and every entry resolved from the old ones is dropped.
        """
        table = self.routes
        lazy = {id(group) for group, _hosts in table.below}
        lazy.add(id(table.default))
        for dst_host in [d for d, g in table.items() if id(g) in lazy]:
            del table[dst_host]
        frozen: Dict[int, tuple] = {}
        for dst_host, group in routes.items():
            cached = frozen.get(id(group))
            if cached is None:
                cached = frozen[id(group)] = self._checked_group(group)
            table[dst_host] = cached
        if below is not None:
            table.below = tuple((self._checked_group((index,)), hosts)
                                for index, hosts in below.items())
        if default is not None:
            table.default = self._checked_group(default)
        self._ecmp_cache.clear()

    def receive(self, packet: Packet) -> None:
        """Forward a packet toward its destination host."""
        try:
            candidates = self.routes[packet.dst]
        except KeyError:
            raise RuntimeError(
                f"{self.name}: no route to host {packet.dst}"
            ) from None
        if len(candidates) == 1:
            port = self.ports[candidates[0]]
        else:
            key = (packet.flow_id, packet.dst)
            index = self._ecmp_cache.get(key)
            if index is None:
                choice = stable_hash(packet.flow_id, self.ecmp_salt) % len(candidates)
                index = candidates[choice]
                self._ecmp_cache[key] = index
            port = self.ports[index]
        classifier = self.classifier
        if classifier is service_classifier:
            # The default, inlined: one Python call less per hop.
            queue_index = packet.service % port.n_queues
        else:
            queue_index = classifier(packet, port)
            if not 0 <= queue_index < port.n_queues:
                raise ValueError(
                    f"{self.name}: classifier put a packet in queue "
                    f"{queue_index} of {port.name}, which has "
                    f"{port.n_queues} queues")
        self.forwarded += 1
        port.enqueue(packet, queue_index)
