"""Classic ECN TCP (RFC 3168 semantics) — a non-DCTCP baseline.

A standard TCP responds to an echoed congestion mark exactly as to a
loss: halve the window, at most once per round trip.  Unlike DCTCP's
proportional ``α/2`` cut, classic ECN over-reacts to light marking —
which is why datacenters moved to DCTCP (paper §II background, [1]).

The class reuses the whole DCTCP machinery (windowing, recovery, pacing,
the PMSB(e) filter hook) and only replaces the congestion response; the
α estimator still runs but never influences the cut.
"""

from __future__ import annotations

from .dctcp import DctcpSender

__all__ = ["ClassicEcnSender"]


class ClassicEcnSender(DctcpSender):
    """TCP with RFC 3168 ECN response: halve once per window on a mark."""

    def _account_alpha_window(self, accepted_mark: bool) -> bool:
        self._acks_in_window += 1
        if accepted_mark:
            self._marks_in_window += 1
            if not self._cut_done:
                self._cut_done = True
                self.ssthresh = max(2.0, self.cwnd / 2.0)
                self.cwnd = self.ssthresh
                return True
        return False
