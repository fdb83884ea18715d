"""DCTCP sender.

A faithful packet-granularity DCTCP model (Alizadeh et al., SIGCOMM 2010):

- **ECN reaction**: the receiver echoes CE per packet; the sender keeps a
  running estimate ``α`` of the marked fraction, updated once per window
  of data with gain ``g`` (``α ← (1−g)·α + g·F``), and cuts the window by
  ``α/2`` at most once per window, on the first accepted mark.
- **Window growth**: standard slow start / congestion avoidance.
- **Loss recovery**: three duplicate ACKs trigger fast retransmit with a
  standard halving; a retransmission timeout falls back to go-back-N with
  exponential backoff.  Karn's rule: no RTT samples from retransmissions.
- **PMSB(e) hook**: every ECE is first shown to the flow's
  :class:`~repro.core.pmsb_endhost.EcnFilter` together with the current
  RTT; a rejected mark is invisible to the congestion machinery
  (Algorithm 2's *selective blindness at the sender*).
- **Pacing**: an optional application rate limit spaces transmissions,
  modelling the paper's "start a 5 Gbps TCP flow" sources.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..net.host import Host
from ..net.packet import DATA, Packet
from ..sim.engine import Simulator
from ..sim.timers import Timer
from .base import DctcpConfig
from .flow import Flow

__all__ = ["DctcpSender"]

#: Callback invoked when a finite flow completes: (flow, fct_seconds, sender).
CompletionCallback = Callable[[Flow, float, "DctcpSender"], None]


class DctcpSender:
    """Sender side of one flow."""

    __slots__ = (
        "sim", "host", "flow", "config", "on_complete",
        # connection state
        "started", "completed", "fct",
        # window state
        "cwnd", "ssthresh", "next_seq", "snd_una", "total_packets",
        # DCTCP alpha state
        "alpha", "_window_end", "_acks_in_window", "_marks_in_window",
        "_cut_done",
        # recovery state
        "dup_acks", "in_recovery", "_recover_seq",
        # RTT / RTO state
        "srtt", "rttvar", "rto", "last_rtt", "_rto_timer",
        # pacing
        "pacing_rate", "_next_send_time", "_pace_timer",
        # True when on_ack runs its hooks inline (see there)
        "_straight",
        # filter + counters
        "ecn_filter", "packets_sent", "retransmissions", "fast_retransmits",
        "timeouts", "acks_received", "marks_accepted", "marks_filtered",
        "nic_drops", "rtt_samples",
    )

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow: Flow,
        config: Optional[DctcpConfig] = None,
        on_complete: Optional[CompletionCallback] = None,
    ):
        self.sim = sim
        self.host = host
        self.flow = flow
        self.config = config if config is not None else DctcpConfig()
        self.on_complete = on_complete

        self.started = False
        self.completed = False
        self.fct: Optional[float] = None

        self.cwnd = float(self.config.init_cwnd)
        self.ssthresh = float(self.config.init_ssthresh)
        self.next_seq = 0
        self.snd_una = 0
        self.total_packets = flow.size_packets

        self.alpha = float(self.config.init_alpha)
        self._window_end = 0
        self._acks_in_window = 0
        self._marks_in_window = 0
        self._cut_done = False

        self.dup_acks = 0
        self.in_recovery = False
        self._recover_seq = 0

        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = self.config.min_rto
        self.last_rtt: Optional[float] = None
        self._rto_timer = Timer(sim, self._on_rto)

        #: Current pacing rate in bits/s (None = unpaced).  Seeded from
        #: the config; rate-controlled variants (TIMELY) adjust it live.
        self.pacing_rate: Optional[float] = self.config.rate_limit_bps
        self._next_send_time = 0.0
        self._pace_timer = Timer(sim, self._try_send)

        self.ecn_filter = self.config.ecn_filter_factory()
        self.packets_sent = 0
        self.retransmissions = 0
        self.fast_retransmits = 0
        self.timeouts = 0
        self.acks_received = 0
        self.marks_accepted = 0
        self.marks_filtered = 0
        self.nic_drops = 0
        self.rtt_samples: Optional[list] = [] if self.config.record_rtt else None
        # Subclasses keep their hooks; the reference path (slow_path)
        # takes them too.
        self._straight = type(self) is DctcpSender and not sim.slow_path

    # -- public API --------------------------------------------------------

    def start(self) -> None:
        """Begin transmitting (scheduled at ``flow.start_time``)."""
        if self.started:
            return
        self.started = True
        self._try_send()
        # The first alpha window is the initial burst.
        self._window_end = self.next_seq

    @property
    def in_flight(self) -> int:
        """Unacknowledged packets currently outstanding."""
        return self.next_seq - self.snd_una

    def stop(self) -> None:
        """Abort the flow (long-lived flows at scenario teardown)."""
        self.completed = True
        self._rto_timer.cancel()
        self._pace_timer.cancel()

    # -- ACK processing ----------------------------------------------------

    def on_ack(self, ack: Packet) -> None:
        """Host demux entry point for this flow's ACKs."""
        if self.completed:
            return
        self.acks_received += 1
        if self._straight:
            # _take_rtt_sample → _filter_mark → _account_alpha_window of
            # this class, in one piece: same state changes, same order.
            sample = None
            echo_time = ack.echo_time
            if not ack.retransmit and echo_time is not None:
                sample = self.sim._now - echo_time
                self.last_rtt = sample
                if self.rtt_samples is not None:
                    self.rtt_samples.append(sample)
                srtt = self.srtt
                if srtt is None:
                    srtt = self.srtt = sample
                    self.rttvar = sample / 2.0
                else:
                    self.rttvar = (0.75 * self.rttvar
                                   + 0.25 * abs(srtt - sample))
                    srtt = self.srtt = 0.875 * srtt + 0.125 * sample
                config = self.config
                self.rto = min(max(srtt + 4.0 * self.rttvar, config.min_rto),
                               config.max_rto)
            self._acks_in_window += 1
            cut_applied = False
            if ack.ece and self._filter_mark(ack, sample):
                self._marks_in_window += 1
                if not self._cut_done:
                    self._cut_done = True
                    self.ssthresh = max(2.0,
                                        self.cwnd * (1.0 - self.alpha / 2.0))
                    self.cwnd = self.ssthresh
                    cut_applied = True
        else:
            rtt_sample = self._take_rtt_sample(ack)
            accepted_mark = self._filter_mark(ack, rtt_sample)
            cut_applied = self._account_alpha_window(accepted_mark)

        if ack.ack_seq > self.snd_una:
            self._on_new_ack(ack.ack_seq, grow=not cut_applied)
        else:
            self._on_duplicate_ack()

    def _take_rtt_sample(self, ack: Packet) -> Optional[float]:
        if ack.retransmit or ack.echo_time is None:
            return None
        sample = self.sim.now - ack.echo_time
        self.last_rtt = sample
        if self.rtt_samples is not None:
            self.rtt_samples.append(sample)
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(
            max(self.srtt + 4.0 * self.rttvar, self.config.min_rto),
            self.config.max_rto,
        )
        return sample

    def _filter_mark(self, ack: Packet, rtt_sample: Optional[float]) -> bool:
        if not ack.ece:
            return False
        if rtt_sample is not None:
            current_rtt = rtt_sample
        elif self.last_rtt is not None:
            current_rtt = self.last_rtt
        else:
            # No measurement yet: fail open (treat the mark as genuine).
            current_rtt = float("inf")
        if self.ecn_filter.accept_mark(current_rtt):
            self.marks_accepted += 1
            return True
        self.marks_filtered += 1
        return False

    def _account_alpha_window(self, accepted_mark: bool) -> bool:
        """Account one ACK; returns True when a window cut was applied."""
        self._acks_in_window += 1
        if accepted_mark:
            self._marks_in_window += 1
            if not self._cut_done:
                # React once per window, immediately on the first mark.
                self._cut_done = True
                self.ssthresh = max(2.0, self.cwnd * (1.0 - self.alpha / 2.0))
                self.cwnd = self.ssthresh
                return True
        return False

    def _on_new_ack(self, ack_seq: int, grow: bool) -> None:
        newly_acked = ack_seq - self.snd_una
        self.snd_una = ack_seq
        if self.next_seq < ack_seq:
            # An RTO rewound next_seq to the old snd_una while ACKs for the
            # original (pre-rewind) transmissions were still in flight; this
            # late ACK just acknowledged past the rewind point.  The acked
            # data was genuinely sent, so resume transmission at the
            # cumulative point — never below it (snd_una <= next_seq must
            # hold, or in_flight goes negative and already-acked sequence
            # numbers get resent).
            self.next_seq = ack_seq
        self.dup_acks = 0
        if self.in_recovery and ack_seq >= self._recover_seq:
            self.in_recovery = False
        if ack_seq >= self._window_end and self._acks_in_window:
            # A window of data is acknowledged: roll the alpha estimate.
            g = self.config.g
            fraction = self._marks_in_window / self._acks_in_window
            self.alpha = (1.0 - g) * self.alpha + g * fraction
            self._acks_in_window = 0
            self._marks_in_window = 0
            self._cut_done = False
            self._window_end = self.next_seq
        # No additive increase on the ACK that carried the congestion cut
        # (CWR semantics) nor while recovering from loss.
        if grow and not self.in_recovery:
            cwnd = self.cwnd
            if cwnd < self.ssthresh:
                self.cwnd = min(cwnd + newly_acked, self.config.max_cwnd)
            else:
                self.cwnd = min(cwnd + newly_acked / cwnd,
                                self.config.max_cwnd)
        total = self.total_packets
        if total is not None and ack_seq >= total:
            self._complete()
            return
        if self.next_seq > ack_seq:
            self._rto_timer.restart(self.rto)
        else:
            self._rto_timer.cancel()
        self._try_send()

    def _on_duplicate_ack(self) -> None:
        self.dup_acks += 1
        if self.dup_acks == self.config.dupack_threshold and not self.in_recovery:
            self.fast_retransmits += 1
            self.in_recovery = True
            self._recover_seq = self.next_seq
            self.ssthresh = max(2.0, self.cwnd / 2.0)
            self.cwnd = self.ssthresh
            self._transmit(self.snd_una, retransmit=True)
            self._rto_timer.restart(self.rto)

    # -- timeout -----------------------------------------------------------

    def _on_rto(self) -> None:
        if self.completed or self.in_flight == 0:
            return
        profiler = self.sim.profiler
        if profiler is not None:
            profiler.count("timer")
        self.timeouts += 1
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = 1.0
        self.dup_acks = 0
        self.in_recovery = False
        # Go-back-N: rewind to the first unacknowledged packet.
        self.next_seq = self.snd_una
        self._window_end = self.snd_una
        self._acks_in_window = 0
        self._marks_in_window = 0
        self._cut_done = False
        self.rto = min(self.rto * 2.0, self.config.max_rto)
        self._try_send()

    # -- transmission ------------------------------------------------------

    def _try_send(self) -> None:
        if self.completed or not self.started:
            return
        rate = self.pacing_rate
        total = self.total_packets
        # The window has room and there is data left.
        while (self.next_seq - self.snd_una < max(1, int(self.cwnd))
               and (total is None or self.next_seq < total)):
            if rate is not None:
                now = self.sim.now
                if now < self._next_send_time:
                    profiler = self.sim.profiler
                    if profiler is not None:
                        profiler.count("pacing")
                    self._pace_timer.restart(self._next_send_time - now)
                    return
            is_retransmit = self.next_seq < self.snd_una  # guarded in _on_new_ack
            self._transmit(self.next_seq, retransmit=is_retransmit)
            self.next_seq += 1
        if self.next_seq > self.snd_una and not self._rto_timer.armed:
            self._rto_timer.restart(self.rto)

    def _transmit(self, seq: int, retransmit: bool) -> None:
        cfg = self.config
        flow = self.flow
        packet = Packet(DATA, flow.flow_id, flow.src, flow.dst, seq,
                        cfg.mss_bytes, flow.service, True)
        now = self.sim._now
        packet.sent_time = now
        packet.retransmit = retransmit
        self.packets_sent += 1
        if retransmit:
            self.retransmissions += 1
        if not self.host.send(packet):
            # The NIC queue overflowed; the loss is recovered like any
            # other (dup ACKs or RTO).
            self.nic_drops += 1
        if self.pacing_rate is not None:
            interval = cfg.mss_bytes * 8.0 / self.pacing_rate
            self._next_send_time = max(self._next_send_time, now) + interval
        if not self._rto_timer.armed:
            self._rto_timer.restart(self.rto)

    # -- completion --------------------------------------------------------

    def _complete(self) -> None:
        self.completed = True
        self.fct = self.sim.now - self.flow.start_time
        self._rto_timer.cancel()
        self._pace_timer.cancel()
        if self.on_complete is not None:
            self.on_complete(self.flow, self.fct, self)
