"""DCQCN — Datacenter QCN (Zhu et al., SIGCOMM 2015).

The rate-based ECN transport the paper's introduction cites for RDMA
deployments ("DCQCN … increases/decreases transmission rate according to
the occurrence/ratio of ECN-marked packets").  Unlike DCTCP there is no
window or ACK clock: the sender paces packets at a current rate ``Rc``
and reacts to *Congestion Notification Packets* (CNPs) the receiver
emits — at most one per ``cnp_interval`` — whenever CE-marked data
arrives.

Reaction point (sender) state machine, following the paper:

- on CNP:  ``Rt ← Rc``, ``Rc ← Rc·(1 − α/2)``, ``α ← (1−g)·α + g``, and
  the rate-increase state resets.
- α decays by ``α ← (1−g)·α`` every ``alpha_timer`` without CNPs.
- rate increase is driven by a timer and a byte counter; with ``i`` the
  number of completed increase epochs:
  *fast recovery* (first ``recovery_rounds`` epochs) ``Rc ← (Rt+Rc)/2``;
  *additive increase* ``Rt ← Rt + r_ai`` then halve toward it;
  *hyper increase* after ``recovery_rounds`` consecutive timer epochs:
  ``Rt ← Rt + r_hai``.

Reliability is RoCE-style go-back-N: the receiver NACKs the expected
sequence on a gap; the sender rewinds.  The receiver detects flow
completion (it knows the flow's size) and sends one final ACK so FCT can
be recorded.

The class exists to demonstrate (and test) that PMSB is
transport-agnostic: its marking decision composes with rate-based ECN
reaction exactly as with window-based DCTCP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..net.host import Host
from ..net.packet import (ACK, ACK_BYTES, CNP, MTU_BYTES, NACK,
                          Packet, make_data)
from ..sim.engine import Simulator
from ..sim.timers import Timer
from .flow import Flow

__all__ = ["DcqcnConfig", "DcqcnSender", "DcqcnReceiver", "open_dcqcn_flow"]


@dataclass
class DcqcnConfig:
    """Knobs of the DCQCN reaction/notification points (paper defaults,
    scaled to the simulated 10G fabric)."""

    mss_bytes: int = MTU_BYTES
    #: Line rate the sender starts at and may never exceed (bits/s).
    line_rate_bps: float = 10e9
    #: Minimum sending rate (bits/s) — the paper's RP floor.
    min_rate_bps: float = 10e6
    #: EWMA gain for alpha.
    g: float = 1.0 / 16.0
    #: Receiver emits at most one CNP per this interval (paper: 50 µs).
    cnp_interval: float = 50e-6
    #: Alpha decays when no CNP arrived for this long (paper: 55 µs).
    alpha_timer: float = 55e-6
    #: Rate-increase timer period (paper: 55 µs fast variant).
    increase_timer: float = 55e-6
    #: Rate-increase byte counter (paper: 10 MB; scaled down so the
    #: state machine exercises within millisecond simulations).
    increase_bytes: int = 150_000
    #: Epochs of fast recovery before additive increase (paper F = 5).
    recovery_rounds: int = 5
    #: Additive increase step (bits/s).
    r_ai: float = 40e6
    #: Hyper increase step (bits/s).
    r_hai: float = 400e6


class DcqcnReceiver:
    """Notification point: delivers data, emits CNPs and NACKs."""

    __slots__ = ("sim", "host", "flow", "config", "expected_seq",
                 "packets_received", "bytes_received", "marked_packets",
                 "cnps_sent", "nacks_sent", "_last_cnp", "_gap_nacked",
                 "completed")

    def __init__(self, sim: Simulator, host: Host, flow: Flow,
                 config: Optional[DcqcnConfig] = None):
        self.sim = sim
        self.host = host
        self.flow = flow
        self.config = config if config is not None else DcqcnConfig()
        self.expected_seq = 0
        self.packets_received = 0
        self.bytes_received = 0
        self.marked_packets = 0
        self.cnps_sent = 0
        self.nacks_sent = 0
        self._last_cnp = -float("inf")
        self._gap_nacked = False
        self.completed = False

    def on_data(self, packet: Packet) -> None:
        if packet.ce:
            self.marked_packets += 1
            now = self.sim.now
            if now - self._last_cnp >= self.config.cnp_interval:
                self._last_cnp = now
                self.cnps_sent += 1
                self._send_control(CNP, packet)

        if packet.seq == self.expected_seq:
            # RoCE receivers deliver strictly in order.
            self.expected_seq += 1
            self.packets_received += 1
            self.bytes_received += packet.size
            self._gap_nacked = False
            total = self.flow.size_packets
            if total is not None and self.expected_seq >= total and \
                    not self.completed:
                self.completed = True
                self._send_control(ACK, packet)
        elif packet.seq > self.expected_seq and not self._gap_nacked:
            # Out-of-order: one NACK per gap event (go-back-N).
            self._gap_nacked = True
            self.nacks_sent += 1
            self._send_control(NACK, packet)
        # seq < expected: duplicate from a rewind — silently dropped.

    def _send_control(self, kind: int, trigger: Packet) -> None:
        control = Packet(kind, self.flow.flow_id, self.flow.dst,
                         self.flow.src, trigger.seq, ACK_BYTES,
                         self.flow.service, False)
        control.ack_seq = self.expected_seq
        self.host.send(control)


class DcqcnSender:
    """Reaction point: rate-paced transmission with CNP-driven control."""

    __slots__ = ("sim", "host", "flow", "config", "on_complete",
                 "rate_current", "rate_target", "alpha",
                 "next_seq", "total_packets", "started", "completed", "fct",
                 "packets_sent", "cnps_received", "nacks_received",
                 "_send_timer", "_alpha_timer", "_increase_timer",
                 "_bytes_since_increase", "_timer_epochs", "_byte_epochs",
                 "_consecutive_timer_epochs")

    def __init__(self, sim: Simulator, host: Host, flow: Flow,
                 config: Optional[DcqcnConfig] = None,
                 on_complete: Optional[Callable] = None):
        self.sim = sim
        self.host = host
        self.flow = flow
        self.config = config if config is not None else DcqcnConfig()
        self.on_complete = on_complete
        self.rate_current = self.config.line_rate_bps
        self.rate_target = self.config.line_rate_bps
        self.alpha = 1.0
        self.next_seq = 0
        self.total_packets = flow.size_packets
        self.started = False
        self.completed = False
        self.fct: Optional[float] = None
        self.packets_sent = 0
        self.cnps_received = 0
        self.nacks_received = 0
        self._send_timer = Timer(sim, self._send_next)
        self._alpha_timer = Timer(sim, self._decay_alpha)
        self._increase_timer = Timer(sim, self._timer_epoch)
        self._bytes_since_increase = 0
        self._timer_epochs = 0
        self._byte_epochs = 0
        self._consecutive_timer_epochs = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self.started:
            return
        self.started = True
        self._alpha_timer.restart(self.config.alpha_timer)
        self._increase_timer.restart(self.config.increase_timer)
        self._send_next()

    def stop(self) -> None:
        self.completed = True
        self._send_timer.cancel()
        self._alpha_timer.cancel()
        self._increase_timer.cancel()

    # -- transmission ------------------------------------------------------

    def _send_next(self) -> None:
        if self.completed or not self.started:
            return
        if self.total_packets is not None and \
                self.next_seq >= self.total_packets:
            return  # all sent; waiting for the final ACK (or a NACK)
        packet = make_data(self.flow.flow_id, self.flow.src,
                           self.flow.dst, self.next_seq, self.config.mss_bytes,
                           self.flow.service, ect=True)
        packet.sent_time = self.sim.now
        self.next_seq += 1
        self.packets_sent += 1
        self._bytes_since_increase += packet.size
        self.host.send(packet)
        if self._bytes_since_increase >= self.config.increase_bytes:
            self._bytes_since_increase = 0
            self._byte_epoch()
        interval = packet.size * 8.0 / self.rate_current
        self._send_timer.restart(interval)

    # -- control-plane input -----------------------------------------------

    def on_ack(self, packet: Packet) -> None:
        """Demux entry for all reverse-path packets (CNP/NACK/final ACK)."""
        if self.completed:
            return
        if packet.kind == CNP:
            self._on_cnp()
        elif packet.kind == NACK:
            self.nacks_received += 1
            # Go-back-N rewind to the receiver's expected sequence.
            self.next_seq = packet.ack_seq
            if not self._send_timer.armed:
                self._send_next()
        elif packet.kind == ACK:
            self.completed = True
            self.fct = self.sim.now - self.flow.start_time
            self.stop()
            if self.on_complete is not None:
                self.on_complete(self.flow, self.fct, self)

    def _on_cnp(self) -> None:
        self.cnps_received += 1
        g = self.config.g
        self.alpha = (1.0 - g) * self.alpha + g
        self.rate_target = self.rate_current
        self.rate_current = max(
            self.config.min_rate_bps,
            self.rate_current * (1.0 - self.alpha / 2.0),
        )
        self._timer_epochs = 0
        self._byte_epochs = 0
        self._consecutive_timer_epochs = 0
        self._alpha_timer.restart(self.config.alpha_timer)

    # -- alpha decay and rate increase --------------------------------------

    def _decay_alpha(self) -> None:
        if self.completed:
            return
        self.alpha *= 1.0 - self.config.g
        self._alpha_timer.restart(self.config.alpha_timer)

    def _timer_epoch(self) -> None:
        if self.completed:
            return
        self._timer_epochs += 1
        self._consecutive_timer_epochs += 1
        self._increase_epoch(hyper_eligible=True)
        self._increase_timer.restart(self.config.increase_timer)

    def _byte_epoch(self) -> None:
        self._byte_epochs += 1
        self._consecutive_timer_epochs = 0
        self._increase_epoch(hyper_eligible=False)

    def _increase_epoch(self, hyper_eligible: bool) -> None:
        epochs = max(self._timer_epochs, self._byte_epochs)
        if epochs > self.config.recovery_rounds:
            if hyper_eligible and (self._consecutive_timer_epochs
                                   > self.config.recovery_rounds):
                self.rate_target += self.config.r_hai
            else:
                self.rate_target += self.config.r_ai
        self.rate_target = min(self.rate_target, self.config.line_rate_bps)
        self.rate_current = min(
            self.config.line_rate_bps,
            (self.rate_target + self.rate_current) / 2.0,
        )


def open_dcqcn_flow(network, flow: Flow,
                    config: Optional[DcqcnConfig] = None,
                    on_complete: Optional[Callable] = None):
    """Wire a DCQCN flow onto a network (the rate-based counterpart of
    :func:`~repro.transport.endpoints.open_flow`)."""
    sim = network.sim
    src_host = network.host(flow.src)
    dst_host = network.host(flow.dst)
    receiver = DcqcnReceiver(sim, dst_host, flow, config)
    sender = DcqcnSender(sim, src_host, flow, config, on_complete)
    dst_host.register_flow(flow.flow_id, data_handler=receiver.on_data)
    src_host.register_flow(flow.flow_id, ack_handler=sender.on_ack)
    if flow.start_time > sim.now:
        sim.at(flow.start_time, sender.start)
    else:
        sim.schedule(0.0, sender.start)
    return sender, receiver
