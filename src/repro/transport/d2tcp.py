"""D2TCP — Deadline-aware Datacenter TCP (Vamanan et al., SIGCOMM 2012).

One of the ECN-based transports the paper's introduction cites alongside
DCTCP.  D2TCP gamma-corrects DCTCP's congestion response with *deadline
imminence*: on marking the window is cut by ``p/2`` with penalty

    p = α^d,   d = clamp(Tc / D, 0.5, 2.0)

where ``Tc`` is the time the flow still needs at its current rate
(``remaining × RTT / cwnd``) and ``D`` the time left to its deadline.
Since ``α ≤ 1``, a larger exponent gives a *smaller* penalty: a flow
that cannot afford to slow down (``Tc`` approaching ``D`` → ``d > 1``)
backs off less, while a flow with slack (``d < 1``) backs off more and
donates bandwidth.  Flows without a deadline use ``d = 1`` and behave
exactly like DCTCP.
"""

from __future__ import annotations

from .dctcp import DctcpSender

__all__ = ["D2tcpSender"]

#: The paper's clamp on the imminence exponent.
D_MIN = 0.5
D_MAX = 2.0


class D2tcpSender(DctcpSender):
    """DCTCP with deadline-aware gamma-corrected back-off."""

    def deadline_imminence(self) -> float:
        """Current exponent ``d`` (1.0 when no deadline or already late)."""
        deadline = self.flow.deadline
        if deadline is None or self.total_packets is None:
            return 1.0
        remaining_packets = self.total_packets - self.snd_una
        if remaining_packets <= 0:
            return 1.0
        time_left = (self.flow.start_time + deadline) - self.sim.now
        if time_left <= 0:
            # Already past the deadline: the flow races at maximum
            # urgency; D2TCP pins d at the cap.
            return D_MAX
        rtt = (self.srtt if self.srtt is not None and self.srtt > 0
               else self.rto)
        needed = remaining_packets * rtt / max(self.cwnd, 1.0)
        return min(D_MAX, max(D_MIN, needed / time_left))

    def _account_alpha_window(self, accepted_mark: bool) -> bool:
        self._acks_in_window += 1
        if accepted_mark:
            self._marks_in_window += 1
            if not self._cut_done:
                self._cut_done = True
                penalty = self.alpha ** self.deadline_imminence()
                self.ssthresh = max(2.0, self.cwnd * (1.0 - penalty / 2.0))
                self.cwnd = self.ssthresh
                return True
        return False
