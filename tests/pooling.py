"""Test helpers: accounts with a shared buffer, and ports holding one."""

from __future__ import annotations

from repro.net.link import Link
from repro.net.port import Port
from repro.scheduling.fifo import FifoScheduler


class Sink:
    """A link's far end that keeps what it receives."""

    name = "sink"

    def __init__(self):
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


class FakeLink:
    """Just enough link for ``SharedBuffer.port_account``."""

    def __init__(self, bandwidth=1e9):
        self.bandwidth = bandwidth


def open_account(shared, name="p0", drain_bps=1e9):
    """A bare account with ``shared``, not held by any port."""
    return shared.port_account(name, FakeLink(drain_bps))


def pooled_port(sim, shared, name="p0", *, sink=None, bandwidth=1e9,
                delay=1e-6, scheduler=None, **port_kwargs):
    """A port on a fresh link, holding its own account with ``shared``.

    ``port_kwargs`` go to :class:`~repro.net.port.Port` (``marker``,
    ``buffer_packets``).  Returns ``(port, sink)``.
    """
    sink = Sink() if sink is None else sink
    link = Link(sim, bandwidth, delay, sink)
    if scheduler is None:
        scheduler = FifoScheduler(1)
    port = Port(sim, link, scheduler, name=name,
                pool=shared.port_account(name, link), **port_kwargs)
    return port, sink
