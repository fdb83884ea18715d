"""Topology introspection via networkx.

:func:`to_networkx` renders a built :class:`~repro.net.topology.Network`
as a directed graph — hosts and switches as nodes, every unidirectional
link as an edge with ``bandwidth``/``delay`` attributes.  Useful for
validating custom topologies (strong connectivity, path lengths, cut
capacities) and for exporting to graph tooling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

import networkx as nx

from .host import Host
from .switch import Switch

if TYPE_CHECKING:  # pragma: no cover
    from .topology import Network

__all__ = ["to_networkx", "validate_topology", "validate_routes"]


def to_networkx(network: "Network") -> "nx.DiGraph":
    """Build the directed link graph of a network."""
    graph = nx.DiGraph()
    for host in network.hosts:
        graph.add_node(host.name, kind="host", host_id=host.host_id)
    for switch in network.switches:
        graph.add_node(switch.name, kind="switch")

    def add_edges(device_name, ports):
        for port in ports:
            dst = port.link.dst
            if dst is None:
                continue
            graph.add_edge(
                device_name, dst.name,
                bandwidth=port.link.bandwidth,
                delay=port.link.delay,
                port=port.name,
            )

    for switch in network.switches:
        add_edges(switch.name, switch.ports)
    for host in network.hosts:
        if host.nic is not None:
            add_edges(host.name, [host.nic])
    return graph


def validate_topology(network: "Network") -> None:
    """Raise if the fabric is not strongly connected over its hosts.

    Every host must be able to reach every other host through the link
    graph; topology-builder bugs (missing reverse ports, unrouted hosts)
    surface here long before a simulation silently drops traffic.
    """
    graph = to_networkx(network)
    host_names = [h.name for h in network.hosts]
    for src in host_names:
        reachable = nx.descendants(graph, src)
        missing = [dst for dst in host_names
                   if dst != src and dst not in reachable]
        if missing:
            raise ValueError(
                f"{src} cannot reach {missing} through the link graph"
            )


def validate_routes(network: "Network") -> None:
    """Raise unless every switch's next-hop table delivers every host.

    Walks each (switch, destination) pair through *all* ECMP branches:
    a route must exist, must not loop, and every branch must terminate
    at the destination host.  This is the correctness contract the
    generated-topology route derivation
    (:meth:`~repro.net.topology.ClosGenerator.build`) must satisfy on
    any shape, so generator bugs surface here rather than as silently
    blackholed traffic.
    """
    status: Dict[Tuple[int, int], str] = {}

    def check(switch: Switch, dst: int) -> None:
        key = (id(switch), dst)
        state = status.get(key)
        if state == "ok":
            return
        if state == "visiting":
            raise ValueError(
                f"routing loop toward host {dst} through {switch.name}")
        status[key] = "visiting"
        try:
            # The datapath's lookup: a default group answers a subscript,
            # not ``.get``.
            group = switch.routes[dst]
        except KeyError:
            group = None
        if not group:
            raise ValueError(f"{switch.name} has no route to host {dst}")
        for index in group:
            nxt = switch.ports[index].link.dst
            if isinstance(nxt, Host):
                if nxt.host_id != dst:
                    raise ValueError(
                        f"{switch.name} port {switch.ports[index].name} "
                        f"routes host {dst} into host {nxt.host_id}")
            elif isinstance(nxt, Switch):
                check(nxt, dst)
            else:
                raise ValueError(
                    f"{switch.name} port {switch.ports[index].name} toward "
                    f"host {dst} has no connected device")
        status[key] = "ok"

    for switch in network.switches:
        for host in network.hosts:
            check(switch, host.host_id)
