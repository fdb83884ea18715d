"""Runtime invariant auditor — cross-layer conservation checking.

Every paper figure is a ratio of counters kept *independently* by ports,
schedulers, pools, links, hosts and transports.  The auditor attaches
validators across those layers and raises a structured
:class:`InvariantViolation` — naming the counter, the two disagreeing
views, and the event that diverged them — at the first event where any
two views disagree, instead of letting a silent accounting bug skew a
result by a few percent.

Validators
----------

- **packet/byte conservation** (per port): packets seen entering by the
  enqueue listener minus packets seen leaving by the dequeue listener
  must equal the port's occupancy delta, and the port's cumulative
  ``tx_packets``/``drops`` must match the listener counts.
- **port ↔ link conservation**: every transmitted packet is either
  delivered or lost by the attached link.
- **link drop accounting** (chaos runs): every packet a link loses —
  downed wire, injected loss model, CRC corruption, killed in flight by
  ``set_down`` — is reported through :meth:`FabricAuditor.on_link_drop`
  with a reason, and the per-reason ledger must always sum to the
  link's ``packets_lost`` delta, so no injected drop is ever double- or
  un-counted.
- **port ↔ scheduler occupancy**: ``Port._queue_packets[i]`` must equal
  the scheduler's actual queue depth plus the in-service packet (store-
  and-forward: the packet being serialized left the scheduler but still
  occupies the buffer).
- **pool debit/credit balance**: a shared pool's count must equal the
  sum over its audited member ports (plus any residual recorded when the
  members were attached).
- **shared-buffer conservation** (fabric-wide): for a
  :class:`~repro.net.sharedbuf.SharedBuffer`, the switch-wide totals
  must equal the sum of every per-port account at all times (Σ per-port
  debits == pool occupancy), each account must equal its own port's
  occupancy (credits happen exactly once, on tx/drop/reset), and the
  totals may never exceed the configured capacity.
- **transport invariants** (per watched flow): ``snd_una`` is monotone
  and never exceeds ``next_seq``; ``cwnd >= 1``; Karn's rule — an ACK of
  a retransmitted segment changes no RTT state; the receiver's
  cumulative point never regresses; ECE on an ACK implies the receiver
  actually observed CE (``marked_packets > 0``).
- **ECN legality** (per hop): CE without ECT is always illegal, and a
  packet that enters a port unmarked may leave it marked only if that
  port's marker marks at dequeue.
- **marker threshold boundary**: a marker's tunable thresholds may only
  change through the :meth:`~repro.ecn.base.Marker.set_thresholds`
  staging surface, whose commits land at packet boundaries and bump
  ``threshold_epoch``.  Thresholds that differ between two datapath
  events without an epoch bump — e.g. mutated raw between a packet's
  enqueue decision and its dequeue decision — are a violation.
- **engine hygiene**: a port whose ``_tx_event`` is cancelled or no
  longer in the heap (the wedged-port state left behind by
  :meth:`~repro.sim.engine.Simulator.clear` without
  :meth:`~repro.net.port.Port.reset`) is reported at its next datapath
  event; a ``scheduler.clear()`` that bypasses ``Port.reset`` (leaving
  port counters pointing at discarded packets) is caught through the
  scheduler's ``clear_observer`` hook.

Zero cost when disabled
-----------------------

All checks ride existing listener lists and observer slots; when no
auditor is constructed, no hook is installed anywhere — the engine and
port hot paths are untouched (the only added cost in the whole codebase
is one ``None`` check in ``Simulator.clear`` and one per ``open_flow``).

Usage::

    sim = Simulator()
    auditor = FabricAuditor(sim)
    network = TopologySpec(preset="single-bottleneck").build(sim, ...)
    auditor.attach_network(network)       # ports + hosts + switches
    ...                                   # open_flow auto-watches flows
    sim.run(until=0.1)
    auditor.verify_fabric()               # final global conservation pass

The experiment runners (``run_incast`` / ``run_fct_point``) wire this up
when their ``config.audit`` is set, which is what the CLI's ``--audit``
does.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..net.port import Port
    from ..net.topology import Network
    from ..transport.endpoints import FlowHandle
    from .engine import Simulator

__all__ = ["InvariantViolation", "FabricAuditor"]


class InvariantViolation(AssertionError):
    """Two independent views of one counter disagree.

    Structured fields:

    - ``counter``: the invariant that broke (e.g. ``"queue-occupancy"``).
    - ``subject``: the object it broke on (port/pool/flow name).
    - ``view_a`` / ``view_b``: ``(view_name, value)`` pairs — the two
      bookkeepers that disagree.
    - ``event``: the datapath event that diverged them.
    - ``time``: simulation time of that event.
    """

    def __init__(
        self,
        counter: str,
        subject: str,
        view_a: Tuple[str, Any],
        view_b: Tuple[str, Any],
        event: str,
        time: float,
    ):
        self.counter = counter
        self.subject = subject
        self.view_a = view_a
        self.view_b = view_b
        self.event = event
        self.time = time
        super().__init__(
            f"[t={time:.9f}] {counter} violated at {subject} "
            f"during {event}: {view_a[0]}={view_a[1]!r} vs "
            f"{view_b[0]}={view_b[1]!r}"
        )


class _PortAudit:
    """Per-port listener counters and attach-time baselines."""

    __slots__ = (
        "enq_packets", "enq_bytes", "tx_packets", "tx_bytes", "drops",
        "base_occ_packets", "base_occ_bytes", "base_tx_packets",
        "base_tx_bytes", "base_drops", "base_delivered", "base_lost",
        "attach_delivered", "transit_ce", "link_drops",
        "marker_epoch", "marker_thresholds",
    )

    def __init__(self, port: "Port"):
        self.enq_packets = 0
        self.enq_bytes = 0
        self.tx_packets = 0
        self.tx_bytes = 0
        self.drops = 0
        #: drop reason -> count, fed by ``FabricAuditor.on_link_drop``;
        #: must always sum to the link's ``packets_lost`` delta.
        self.link_drops: Dict[str, int] = {}
        self.rebaseline(port)
        #: Link deliveries at attach time.  Unlike ``base_delivered``
        #: this is never re-anchored by a port reset: the fabric-wide
        #: conservation equation compares against the host/switch
        #: baselines, which are also attach-time quantities.
        self.attach_delivered = port.link.packets_delivered
        #: packet uid -> CE bit observed at enqueue, for packets
        #: currently buffered in this port (bounded by occupancy).
        self.transit_ce: Dict[int, bool] = {}

    def rebaseline(self, port: "Port") -> None:
        """Re-anchor all baselines at the port's current counters."""
        self.enq_packets = self.enq_bytes = 0
        self.tx_packets = self.tx_bytes = 0
        self.drops = 0
        self.base_occ_packets = port._packet_count
        self.base_occ_bytes = port._byte_count
        self.base_tx_packets = port.tx_packets
        self.base_tx_bytes = port.tx_bytes
        self.base_drops = port.drops
        self.base_delivered = port.link.packets_delivered
        self.base_lost = port.link.packets_lost
        self.link_drops.clear()
        #: Marker threshold snapshot + epoch: values that change while
        #: the epoch stands still were mutated behind the staging
        #: surface (the ``marker-threshold-boundary`` rule).
        self.marker_epoch = port.marker.threshold_epoch
        self.marker_thresholds = port.marker.thresholds()


class FabricAuditor:
    """Opt-in cross-layer invariant checker for one simulator.

    Construct it right after the :class:`~repro.sim.engine.Simulator`
    (it installs itself as ``sim.auditor``), attach the fabric with
    :meth:`attach_network` (or individual ports with
    :meth:`attach_port`), and call :meth:`verify_fabric` after the run.
    Flows opened through
    :func:`~repro.transport.endpoints.open_flow` while the auditor is
    installed are watched automatically.
    """

    def __init__(self, sim: "Simulator"):
        if sim.auditor is not None:
            raise ValueError("simulator already has an auditor attached")
        self.sim = sim
        sim.auditor = self
        self._ports: "Dict[Port, _PortAudit]" = {}
        #: link -> owning audited port, for the drop-accounting channel.
        self._link_ports: Dict[Any, "Port"] = {}
        #: Drops reported by links no audited port owns (bare-link
        #: tests); counted but not cross-checked.
        self.unattached_link_drops = 0
        #: pool -> (packet residual, byte residual) at member attach time.
        self._pool_residuals: Dict[Any, Tuple[int, int]] = {}
        #: Switch-wide SharedBuffers discovered behind port accounts.
        self._shared_buffers: List[Any] = []
        self._hosts: List[Any] = []
        self._switches: List[Any] = []
        self._base_host_received: List[int] = []
        self._base_switch_forwarded: List[int] = []
        #: Total individual invariant checks evaluated (for reporting).
        self.checks = 0
        #: Flows being watched (count only; handlers are closures).
        self.flows_watched = 0
        #: ``Simulator.clear`` calls observed.
        self.clears_observed = 0
        #: Packets handed to another shard (captured at a boundary stub).
        self.external_exported = 0
        #: Packets injected from another shard's export batch.
        self.external_imported = 0
        #: When sharded, the host ids owned by this shard; ``None`` means
        #: the whole fabric is local (single-process run).
        self.local_host_ids: Optional[set] = None

    # -- attachment --------------------------------------------------------

    def attach_port(self, port: "Port") -> None:
        """Install listeners on one port and record its baselines."""
        if port in self._ports:
            return
        self._ports[port] = _PortAudit(port)
        self._link_ports[port.link] = port
        port.enqueue_listeners.append(self._on_enqueue)
        port.dequeue_listeners.append(self._on_dequeue)
        port.drop_listeners.append(self._on_drop)
        port.scheduler.clear_observer = (
            lambda _port=port: self._on_scheduler_clear(_port)
        )
        if port.pool is not None:
            self._rebalance_pool(port.pool)
            shared = getattr(port.pool, "shared", None)
            if shared is not None and shared not in self._shared_buffers:
                self._shared_buffers.append(shared)

    def attach_network(self, network: "Network") -> None:
        """Attach every switch port and host NIC of a built topology."""
        for switch in network.switches:
            self._switches.append(switch)
            self._base_switch_forwarded.append(switch.forwarded)
            for port in switch.ports:
                self.attach_port(port)
        for host in network.hosts:
            self._hosts.append(host)
            self._base_host_received.append(host.received_packets)
            if host.nic is not None:
                self.attach_port(host.nic)

    def watch_flow(self, handle: "FlowHandle") -> None:
        """Wrap one flow's endpoint handlers with transport validators.

        Called automatically by ``open_flow`` when an auditor is
        installed.  Senders without the DCTCP window interface (e.g.
        rate-based DCQCN wired through its own opener) are skipped.
        """
        sender = handle.sender
        receiver = handle.receiver
        if not hasattr(sender, "snd_una"):
            return
        flow_id = handle.flow.flow_id
        name = f"flow{flow_id}"
        # Under sharding the data-path receiver may live in another
        # shard; the local mirror never sees CE marks, so the ecn-echo
        # cross-check would false-positive on remote-receiver flows.
        receiver_local = (self.local_host_ids is None
                          or handle.flow.dst in self.local_host_ids)

        def audited_on_ack(ack, _s=sender, _r=receiver, _name=name,
                           _rl=receiver_local):
            prev_una = _s.snd_una
            prev_rtt_state = (_s.last_rtt, _s.srtt, _s.rto)
            _s.on_ack(ack)
            self.checks += 1
            event = f"ack(ack_seq={ack.ack_seq})"
            if _rl and ack.ece and _r.marked_packets == 0:
                self._fail("ecn-echo", _name,
                           ("ack.ece", True),
                           ("receiver.marked_packets", 0), event)
            if ack.retransmit and (_s.last_rtt, _s.srtt,
                                   _s.rto) != prev_rtt_state:
                self._fail("karn-rtt-sample", _name,
                           ("rtt state before", prev_rtt_state),
                           ("rtt state after retransmitted ack",
                            (_s.last_rtt, _s.srtt, _s.rto)), event)
            if _s.snd_una < prev_una:
                self._fail("snd_una-monotone", _name,
                           ("snd_una before", prev_una),
                           ("snd_una after", _s.snd_una), event)
            if _s.snd_una > _s.next_seq:
                self._fail("snd_una<=next_seq", _name,
                           ("snd_una", _s.snd_una),
                           ("next_seq", _s.next_seq), event)
            if _s.cwnd < 1.0:
                self._fail("cwnd>=1", _name,
                           ("cwnd", _s.cwnd), ("floor", 1.0), event)

        def audited_on_data(packet, _r=receiver, _name=name):
            prev_expected = _r.expected_seq
            _r.on_data(packet)
            self.checks += 1
            if _r.expected_seq < prev_expected:
                self._fail("receiver-cumulative-monotone", _name,
                           ("expected_seq before", prev_expected),
                           ("expected_seq after", _r.expected_seq),
                           f"data(seq={packet.seq})")

        sender.host.register_flow(flow_id, ack_handler=audited_on_ack)
        receiver.host.register_flow(flow_id, data_handler=audited_on_data)
        self.flows_watched += 1

    def watch_receiver(self, flow, receiver) -> None:
        """Wrap a receiver-only wiring (sharded run, sender elsewhere)."""
        name = f"flow{flow.flow_id}"

        def audited_on_data(packet, _r=receiver, _name=name):
            prev_expected = _r.expected_seq
            _r.on_data(packet)
            self.checks += 1
            if _r.expected_seq < prev_expected:
                self._fail("receiver-cumulative-monotone", _name,
                           ("expected_seq before", prev_expected),
                           ("expected_seq after", _r.expected_seq),
                           f"data(seq={packet.seq})")

        receiver.host.register_flow(flow.flow_id,
                                    data_handler=audited_on_data)
        self.flows_watched += 1

    def detach(self) -> None:
        """Remove all port hooks and release the ``sim.auditor`` slot.

        Flow handler wrappers stay registered (they only re-enter the
        original endpoints plus cheap comparisons).
        """
        for port in self._ports:
            for listeners, hook in (
                (port.enqueue_listeners, self._on_enqueue),
                (port.dequeue_listeners, self._on_dequeue),
                (port.drop_listeners, self._on_drop),
            ):
                if hook in listeners:
                    listeners.remove(hook)
            port.scheduler.clear_observer = None
        self._ports.clear()
        self._link_ports.clear()
        if self.sim.auditor is self:
            self.sim.auditor = None

    # -- event hooks -------------------------------------------------------

    def _on_enqueue(self, port: "Port", queue_index: int, packet) -> None:
        state = self._ports[port]
        # Audited packets are exempt from pool recycling: the transit
        # ledger cross-checks their fields between enqueue and dequeue,
        # which a reused object would silently falsify.
        packet.pinned = True
        state.enq_packets += 1
        state.enq_bytes += packet.size
        event = f"enqueue(queue={queue_index}, pkt={packet.uid})"
        if packet.ce and not packet.ect:
            self._fail("ecn-legality", port.name,
                       ("packet.ce", True), ("packet.ect", False), event)
        state.transit_ce[packet.uid] = packet.ce
        self._check_port(port, state, event)

    def _on_dequeue(self, port: "Port", queue_index: int, packet) -> None:
        state = self._ports[port]
        state.tx_packets += 1
        state.tx_bytes += packet.size
        event = f"dequeue(queue={queue_index}, pkt={packet.uid})"
        if packet.ce and not packet.ect:
            self._fail("ecn-legality", port.name,
                       ("packet.ce", True), ("packet.ect", False), event)
        entry_ce = state.transit_ce.pop(packet.uid, None)
        if entry_ce is False and packet.ce:
            from ..ecn.base import MarkPoint
            if port.marker.mark_point is not MarkPoint.DEQUEUE:
                self._fail(
                    "ce-without-marker", port.name,
                    ("CE set between enqueue and dequeue", True),
                    (f"marker {type(port.marker).__name__} mark_point",
                     port.marker.mark_point.value), event)
        self._check_port(port, state, event)

    def _on_drop(self, port: "Port", queue_index: int, packet) -> None:
        state = self._ports[port]
        state.drops += 1
        event = f"drop(queue={queue_index}, pkt={packet.uid})"
        buffer_full = (port.buffer_packets is not None
                       and port._packet_count >= port.buffer_packets)
        pool_reject = (port.pool is not None
                       and not port.pool.admits(port._packet_count))
        if not (buffer_full or pool_reject):
            self._fail("unjustified-drop", port.name,
                       ("occupancy", port._packet_count),
                       ("buffer_packets", port.buffer_packets), event)
        self._check_port(port, state, event)

    def on_link_drop(self, link, packet, reason: str) -> None:
        """A link dropped ``packet`` for ``reason`` (chaos channel).

        Called by :meth:`repro.net.link.Link.deliver` (downed wire,
        loss-model drop, CRC corruption) and by its delivery completion
        (in-flight kill after ``set_down``) right after the link's own
        counters were charged.  The per-reason ledger must therefore
        already agree with the cumulative ``packets_lost`` delta — a
        disagreement means a drop was double- or un-counted.
        """
        port = self._link_ports.get(link)
        if port is None:
            self.unattached_link_drops += 1
            return
        state = self._ports[port]
        state.link_drops[reason] = state.link_drops.get(reason, 0) + 1
        self.checks += 1
        lost = link.packets_lost - state.base_lost
        ledger = sum(state.link_drops.values())
        if ledger != lost:
            self._fail("link-drop-ledger", link.name,
                       ("drop reports by reason", ledger),
                       ("link.packets_lost delta", lost),
                       f"link_drop(reason={reason}, pkt={packet.uid})")

    def _on_scheduler_clear(self, port: "Port") -> None:
        """``Scheduler.clear`` fired — legal only via ``Port.reset``.

        ``Port.reset`` zeroes the port's occupancy counters (and cancels
        the in-service transmission) *before* clearing the scheduler, so
        at this point a legitimate reset shows an empty port.  A direct
        ``scheduler.clear()`` mid-traffic leaves the port counting
        packets the scheduler just discarded.
        """
        state = self._ports.get(port)
        if state is None:
            return
        self.checks += 1
        tx = port._tx_event
        in_service = 1 if (tx is not None and not tx.cancelled
                           and tx.scheduled) else 0
        if port._packet_count != in_service:
            self._fail(
                "scheduler-cleared-under-port", port.name,
                ("port packet_count", port._packet_count),
                ("scheduler depth + in-service", in_service),
                "scheduler.clear()")

    def on_port_reset(self, port: "Port") -> None:
        """``Port.reset`` completed: re-anchor this port's baselines.

        Reset discards buffered packets without dequeue events, so the
        listener ledgers are re-anchored at the (now empty) port state;
        cumulative counters are preserved by reset and re-baselined.
        """
        state = self._ports.get(port)
        if state is None:
            return
        state.rebaseline(port)
        state.transit_ce.clear()

    def on_clear(self) -> None:
        """``Simulator.clear`` notification (engine hygiene).

        Clearing mid-run legitimately precedes ``Port.reset``, so no
        violation is raised here; instead every audited port's next
        datapath event checks ``_tx_event`` liveness and reports a
        wedged port that was reused without reset.
        """
        self.clears_observed += 1

    # -- validators --------------------------------------------------------

    def _fail(self, counter: str, subject: str, view_a: Tuple[str, Any],
              view_b: Tuple[str, Any], event: str) -> None:
        raise InvariantViolation(counter, subject, view_a, view_b, event,
                                 self.sim.now)

    def _check_port(self, port: "Port", state: _PortAudit,
                    event: str) -> None:
        self.checks += 1
        name = port.name
        # Engine hygiene: the in-service completion event must be live.
        tx = port._tx_event
        in_service_queue = None
        if tx is not None:
            if tx.cancelled or not tx.scheduled:
                self._fail(
                    "engine-hygiene", name,
                    ("port._tx_event", "cancelled/unscheduled"),
                    ("expected", "live heap or wheel entry (reset the "
                     "port after Simulator.clear)"), event)
            else:
                in_service_queue = tx.args[0]
        # Port-internal consistency: total vs per-queue sums.
        queue_sum = sum(port._queue_packets)
        if port._packet_count != queue_sum:
            self._fail("port-occupancy", name,
                       ("port._packet_count", port._packet_count),
                       ("sum(port._queue_packets)", queue_sum), event)
        byte_sum = sum(port._queue_bytes)
        if port._byte_count != byte_sum:
            self._fail("port-occupancy-bytes", name,
                       ("port._byte_count", port._byte_count),
                       ("sum(port._queue_bytes)", byte_sum), event)
        # Port vs scheduler: queue depth + the in-service packet.
        scheduler = port.scheduler
        for i in range(scheduler.n_queues):
            expected = scheduler.queue_len(i) + (
                1 if i == in_service_queue else 0)
            if port._queue_packets[i] != expected:
                self._fail(
                    "queue-occupancy", f"{name}[q{i}]",
                    (f"port._queue_packets[{i}]", port._queue_packets[i]),
                    ("scheduler depth + in-service", expected), event)
        # Packet/byte conservation: enqueued - transmitted == buffered.
        buffered = port._packet_count - state.base_occ_packets
        if state.enq_packets - state.tx_packets != buffered:
            self._fail(
                "packet-conservation", name,
                ("enqueued - transmitted",
                 state.enq_packets - state.tx_packets),
                ("occupancy delta", buffered), event)
        buffered_bytes = port._byte_count - state.base_occ_bytes
        if state.enq_bytes - state.tx_bytes != buffered_bytes:
            self._fail(
                "byte-conservation", name,
                ("enqueued - transmitted bytes",
                 state.enq_bytes - state.tx_bytes),
                ("byte occupancy delta", buffered_bytes), event)
        # Cumulative counters vs listener ledger.
        if port.tx_packets - state.base_tx_packets != state.tx_packets:
            self._fail("tx-counter", name,
                       ("port.tx_packets delta",
                        port.tx_packets - state.base_tx_packets),
                       ("dequeue events seen", state.tx_packets), event)
        if port.tx_bytes - state.base_tx_bytes != state.tx_bytes:
            self._fail("tx-bytes-counter", name,
                       ("port.tx_bytes delta",
                        port.tx_bytes - state.base_tx_bytes),
                       ("dequeued bytes seen", state.tx_bytes), event)
        if port.drops - state.base_drops != state.drops:
            self._fail("drop-counter", name,
                       ("port.drops delta", port.drops - state.base_drops),
                       ("drop events seen", state.drops), event)
        # Threshold boundary: a marker's tunable parameters may change
        # only through a set_thresholds() commit, which lands at a
        # packet boundary and bumps threshold_epoch.  Values that
        # differ from the last event's snapshot at an *unchanged* epoch
        # were mutated raw — mid-packet, between a packet's enqueue
        # decision and its dequeue decision, the decisions disagree
        # about which scheme was in force.
        marker = port.marker
        epoch = marker.threshold_epoch
        if epoch != state.marker_epoch:
            state.marker_epoch = epoch
            state.marker_thresholds = marker.thresholds()
        else:
            live = marker.thresholds()
            if live != state.marker_thresholds:
                self._fail("marker-threshold-boundary", name,
                           ("thresholds at last boundary commit",
                            state.marker_thresholds),
                           ("thresholds now (no epoch bump)", live), event)
        # Port vs link: transmitted == delivered + lost.
        link = port.link
        delivered = link.packets_delivered - state.base_delivered
        lost = link.packets_lost - state.base_lost
        if port.tx_packets - state.base_tx_packets != delivered + lost:
            self._fail("link-conservation", name,
                       ("port.tx_packets delta",
                        port.tx_packets - state.base_tx_packets),
                       ("link delivered + lost", delivered + lost), event)
        # Drop accounting: every loss has exactly one reported reason.
        ledger = sum(state.link_drops.values())
        if ledger != lost:
            self._fail("link-drop-ledger", name,
                       ("drop reports by reason", ledger),
                       ("link.packets_lost delta", lost), event)
        # Pool debit/credit balance.
        if port.pool is not None:
            self._check_pool(port.pool, event)
            shared = getattr(port.pool, "shared", None)
            if shared is not None:
                self._check_shared(shared, event)

    def _member_sums(self, pool) -> Tuple[int, int]:
        packets = bytes_ = 0
        for port in self._ports:
            if port.pool is pool:
                packets += port._packet_count
                bytes_ += port._byte_count
        return packets, bytes_

    def _rebalance_pool(self, pool) -> None:
        """Record the pool residual not explained by audited members."""
        packets, bytes_ = self._member_sums(pool)
        self._pool_residuals[pool] = (pool.packet_count - packets,
                                      pool.byte_count - bytes_)

    def _check_pool(self, pool, event: str) -> None:
        self.checks += 1
        residual_packets, residual_bytes = self._pool_residuals[pool]
        packets, bytes_ = self._member_sums(pool)
        if pool.packet_count != packets + residual_packets:
            self._fail("pool-balance", pool.name,
                       ("pool.packet_count", pool.packet_count),
                       ("sum of member ports + residual",
                        packets + residual_packets), event)
        if pool.byte_count != bytes_ + residual_bytes:
            self._fail("pool-balance-bytes", pool.name,
                       ("pool.byte_count", pool.byte_count),
                       ("sum of member ports + residual",
                        bytes_ + residual_bytes), event)

    def _check_shared(self, shared, event: str) -> None:
        """Fabric-wide conservation for one switch-wide SharedBuffer.

        Σ per-port account debits must equal the pool's totals at every
        event (a packet credited twice — the old ``Port.reset`` bypass —
        or never credited diverges them immediately), and the totals may
        never exceed the configured capacity.  The companion per-account
        rule (account == its port's own occupancy) rides the generic
        :meth:`_check_pool` run on each member account.
        """
        self.checks += 1
        packets = sum(a.packet_count for a in shared.accounts)
        bytes_ = sum(a.byte_count for a in shared.accounts)
        if shared.packet_count != packets:
            self._fail("sharedbuf-conservation", shared.name,
                       ("shared.packet_count", shared.packet_count),
                       ("sum of port accounts", packets), event)
        if shared.byte_count != bytes_:
            self._fail("sharedbuf-conservation-bytes", shared.name,
                       ("shared.byte_count", shared.byte_count),
                       ("sum of port accounts", bytes_), event)
        if shared.packet_count > shared.capacity_packets:
            self._fail("sharedbuf-capacity", shared.name,
                       ("shared.packet_count", shared.packet_count),
                       ("capacity_packets", shared.capacity_packets),
                       event)

    # -- on-demand verification -------------------------------------------

    def verify_port(self, port: "Port") -> None:
        """Run the full per-port validator set right now."""
        self._check_port(port, self._ports[port], "verify_port")

    def verify_fabric(self) -> int:
        """Verify every attached port, pool, and global conservation.

        Global conservation over the audited fabric: every packet a link
        delivered was received by a host or forwarded by a switch, up to
        the packets still propagating (in flight).  In-flight can never
        be negative, and must be exactly zero once the event heap holds
        no live events.  Returns the cumulative check count.
        """
        for port, state in self._ports.items():
            self._check_port(port, state, "verify_fabric")
        for pool in self._pool_residuals:
            self._check_pool(pool, "verify_fabric")
        for shared in self._shared_buffers:
            self._check_shared(shared, "verify_fabric")
        if self._hosts or self._switches:
            self.checks += 1
            delivered = sum(
                port.link.packets_delivered - state.attach_delivered
                for port, state in self._ports.items())
            received = sum(
                host.received_packets - base for host, base in
                zip(self._hosts, self._base_host_received))
            forwarded = sum(
                switch.forwarded - base for switch, base in
                zip(self._switches, self._base_switch_forwarded))
            # Sharded runs: packets captured at a boundary stub were
            # delivered here but consumed elsewhere (exported), and
            # injected packets are consumed here without a local
            # delivery (imported).
            in_flight = (delivered + self.external_imported
                         - received - forwarded - self.external_exported)
            if in_flight < 0:
                self._fail("global-conservation", "fabric",
                           ("links delivered", delivered),
                           ("hosts received + switches forwarded",
                            received + forwarded), "verify_fabric")
            sim = self.sim
            quiescent = sim.pending_events - sim.cancelled_pending == 0
            if quiescent and in_flight != 0:
                self._fail("global-conservation", "fabric",
                           ("packets in flight", in_flight),
                           ("live events pending", 0), "verify_fabric")
        return self.checks

    def report(self) -> str:
        """One-line plain-text summary (mirrors ``SimProfiler.report``)."""
        return (f"audit: {self.checks} checks over {len(self._ports)} "
                f"ports, {self.flows_watched} flows watched, "
                f"0 violations")
