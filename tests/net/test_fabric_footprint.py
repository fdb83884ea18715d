"""What a built fabric costs before, and after, it carries a packet.

A 1024-host fat-tree has 6,144 ports and 327,680 (switch, host) pairs,
and a run touches a fraction of them, so queue storage, per-queue
scheduler state and route entries exist only once traffic needs them.
The ceiling is on bytes allocated (``tracemalloc``), not resident
memory, so it reads the same on any host: 94.4 MiB when every queue and
pair was built up front, 20 MiB (WFQ + TCN) / 27 MiB (DWRR + PMSB) with
the downward routes and per-queue arrays still built, 11.5 / 13.3 MiB
since.

The same bytes per port are pinned tightly: a per-port field costs
6,144 times over, and a few hundred bytes per port is what moves the
1024-host benchmark's peak RSS past its bound.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.pmsb import PmsbMarker
from repro.ecn.tcn import TcnMarker
from repro.net.topology import TopologySpec
from repro.scheduling.dwrr import DwrrScheduler
from repro.scheduling.wfq import WfqScheduler
from repro.sim.engine import Simulator
from repro.transport.endpoints import open_flow
from repro.transport.flow import Flow

SPEC = "clos:tiers=3,ports=16"
CEILING_MIB = 30.0
#: Route entries an idle fabric holds: a table stores an entry only
#: when a lookup resolves it.
DOWNWARD_ENTRIES = 0

#: Build bytes per port (links, switches and route tables included) as
#: measured, plus 2 %: one more cached bound method per port fails it.
PER_PORT_CEILING = {"wfq+tcn": 1962 * 1.02, "dwrr+pmsb": 2278 * 1.02}

FABRICS = {
    "wfq+tcn": (lambda: WfqScheduler(8), lambda: TcnMarker(100e-6)),
    "dwrr+pmsb": (lambda: DwrrScheduler(8), lambda: PmsbMarker(12.0)),
}


def build(kind, sim):
    return TopologySpec.parse(SPEC).build(sim, *FABRICS[kind])


def build_traced(kind):
    """(network, MiB the build allocated and still holds)."""
    sim = Simulator()
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        network = build(kind, sim)
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return network, (after - before) / 2**20


def ports_of(network):
    yield from (host.nic for host in network.hosts)
    for switch in network.switches:
        yield from switch.ports


def owns_storage(port):
    """Queue storage, or the per-queue state FIFO, DWRR and WFQ create
    with it."""
    scheduler = port.scheduler
    return (any(queue is not None for queue in scheduler._queues)
            or any(getattr(scheduler, name, None) is not None
                   for name in ("_order", "_active", "_heap")))


@pytest.mark.parametrize("kind", sorted(FABRICS))
def test_an_idle_fabric_allocates_no_queues_and_no_upward_routes(kind):
    network, allocated_mib = build_traced(kind)
    assert allocated_mib <= CEILING_MIB
    assert not any(owns_storage(port) for port in ports_of(network))
    assert sum(len(switch.routes)
               for switch in network.switches) == DOWNWARD_ENTRIES


@pytest.mark.parametrize("kind", sorted(FABRICS))
def test_bytes_per_port_stay_pinned(kind):
    network, allocated_mib = build_traced(kind)
    ports = sum(1 for _port in ports_of(network))
    assert allocated_mib * 2**20 / ports <= PER_PORT_CEILING[kind]


def test_one_flow_materialises_only_its_path():
    network = build("dwrr+pmsb", Simulator())
    # First host of pod 0 to last host of pod 15: six ports each way
    # (NIC, edge, aggregation, core, aggregation, edge).
    open_flow(network, Flow(src=0, dst=1023, size_bytes=30_000))
    network.sim.run()
    carried = {port.name for port in ports_of(network) if port.tx_packets}
    assert len(carried) == 12
    assert {port.name for port in ports_of(network)
            if owns_storage(port)} == carried
    # Only the switches on the path hold entries, only for the two
    # endpoints: one per switch hop, five hops each way.
    resolved = {switch.name: set(switch.routes)
                for switch in network.switches if switch.routes}
    assert set(resolved) == {switch.name for switch in network.switches
                             if switch.forwarded}
    assert all(dsts <= {0, 1023} for dsts in resolved.values())
    assert sum(map(len, resolved.values())) == 10
