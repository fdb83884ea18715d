"""TIMELY — RTT-gradient congestion control (Mittal et al., SIGCOMM 2015).

The paper's reference [10], cited as evidence that datacenter RTTs can
be measured precisely enough for PMSB(e)'s filter.  TIMELY goes further:
it uses RTT as the *only* congestion signal, adjusting a pacing rate by
the RTT gradient.  Per RTT sample:

- ``rtt < t_low``  → additive increase (the network is clearly idle);
- ``rtt > t_high`` → multiplicative decrease proportional to how far the
  RTT overshoots: ``rate ← rate·(1 − β·(1 − t_high/rtt))``;
- otherwise, gradient mode: with the EWMA-smoothed, min-RTT-normalized
  gradient ``g``, a non-positive ``g`` adds ``δ`` (``N·δ`` in
  hyperactive-increase mode after several consecutive non-positive
  gradients), a positive ``g`` multiplies by ``(1 − β·g)``.

The sender reuses the DCTCP reliability machinery (the window stays at
its socket-buffer cap and never reacts to ECN — TIMELY ignores marks);
congestion control happens purely through :attr:`pacing_rate`.  Having
both PMSB(e) (RTT as a *filter* on ECN) and TIMELY (RTT as the *signal*)
in one framework lets the two design points be compared directly.
"""

from __future__ import annotations

from typing import Optional

from ..net.packet import Packet
from .dctcp import DctcpSender

__all__ = ["TimelySender"]


class TimelySender(DctcpSender):
    """Rate-based sender driven by the RTT gradient (no ECN reaction)."""

    # TIMELY parameters (paper values, with thresholds sized for a
    # ~20-50 µs-RTT 10G fabric; override after construction if needed).
    t_low = 50e-6
    t_high = 200e-6
    additive_increment = 10e6      # δ, bits/s
    beta = 0.8
    ewma_alpha = 0.3
    hai_threshold = 5              # consecutive ≤0 gradients before HAI
    hai_multiplier = 5
    min_rate = 10e6

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        line_rate = self.host.nic.link.bandwidth if self.host.nic else 10e9
        self.pacing_rate = line_rate
        self._line_rate = line_rate
        self._prev_rtt: Optional[float] = None
        self._min_rtt: Optional[float] = None
        self._rtt_diff = 0.0
        self._negative_gradients = 0
        self._last_update = -float("inf")

    # -- congestion control ------------------------------------------------

    def _take_rtt_sample(self, ack: Packet) -> Optional[float]:
        sample = super()._take_rtt_sample(ack)
        if sample is not None:
            self._timely_update(sample)
        return sample

    def _timely_update(self, rtt: float) -> None:
        if self._min_rtt is None or rtt < self._min_rtt:
            self._min_rtt = rtt
        # TIMELY samples once per completed segment (16-64 KB), not per
        # packet: per-packet gradients measure the sender's own burst
        # ramp and destroy convergence.  Decimate to one update per
        # base-RTT.
        now = self.sim.now
        if now - self._last_update < self._min_rtt:
            return
        self._last_update = now
        if self._prev_rtt is None:
            self._prev_rtt = rtt
            return
        new_diff = rtt - self._prev_rtt
        self._prev_rtt = rtt
        self._rtt_diff = ((1 - self.ewma_alpha) * self._rtt_diff
                          + self.ewma_alpha * new_diff)
        gradient = self._rtt_diff / self._min_rtt

        if rtt < self.t_low:
            self._increase(self.additive_increment)
            return
        if rtt > self.t_high:
            factor = 1.0 - self.beta * (1.0 - self.t_high / rtt)
            self._decrease(factor)
            return
        if gradient <= 0:
            self._negative_gradients += 1
            steps = (self.hai_multiplier
                     if self._negative_gradients >= self.hai_threshold
                     else 1)
            self._increase(steps * self.additive_increment)
        else:
            self._negative_gradients = 0
            self._decrease(1.0 - self.beta * min(gradient, 1.0))

    def _increase(self, delta_bps: float) -> None:
        self.pacing_rate = min(self._line_rate, self.pacing_rate + delta_bps)

    def _decrease(self, factor: float) -> None:
        self.pacing_rate = max(self.min_rate, self.pacing_rate * factor)

    # -- ECN is ignored ------------------------------------------------------

    def _account_alpha_window(self, accepted_mark: bool) -> bool:
        # TIMELY does not react to marks; keep the window at its cap and
        # let the pacing rate do all the work.
        self._acks_in_window += 1
        return False
