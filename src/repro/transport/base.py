"""Transport configuration.

One :class:`DctcpConfig` object parameterizes every sender in a scenario.
Defaults follow the paper's §VI settings (DCTCP, initial window 16
packets) and the DCTCP paper's recommended gain ``g = 1/16``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..core.pmsb_endhost import AcceptAllFilter, EcnFilter
from ..net.packet import HEADER_BYTES, MTU_BYTES

__all__ = ["DctcpConfig", "PAYLOAD_BYTES", "packets_for_bytes"]

#: Application payload carried by one full-sized data packet.
PAYLOAD_BYTES = MTU_BYTES - HEADER_BYTES


def packets_for_bytes(size_bytes: int) -> int:
    """Number of full-sized packets needed to carry ``size_bytes``."""
    if size_bytes <= 0:
        raise ValueError("flow size must be positive")
    return max(1, math.ceil(size_bytes / PAYLOAD_BYTES))


@dataclass
class DctcpConfig:
    """Knobs of the DCTCP sender."""

    #: Wire size of a data packet (bytes).
    mss_bytes: int = MTU_BYTES
    #: Initial congestion window in packets (paper §VI: 16).
    init_cwnd: float = 16.0
    #: EWMA gain for the marked fraction (DCTCP paper: 1/16).
    g: float = 1.0 / 16.0
    #: Initial marked-fraction estimate.  Starting at 1.0 makes the first
    #: congestion reaction a full halving — the conservative convention
    #: used by production DCTCP implementations.
    init_alpha: float = 1.0
    #: Upper bound on the congestion window (packets) — the socket-buffer
    #: bound.  256 packets ≈ 384 KB, more than 10× the BDP of every
    #: scenario in the paper, so it never constrains a congested flow; it
    #: only stops an *unmarked* solo flow from building unbounded
    #: bufferbloat in its own NIC queue.
    max_cwnd: float = 256.0
    #: Initial slow-start threshold (packets).
    init_ssthresh: float = float("inf")
    #: Floor of the retransmission timeout (seconds).
    min_rto: float = 10e-3
    #: Cap of the exponential RTO backoff (seconds).
    max_rto: float = 1.0
    #: Duplicate ACKs triggering fast retransmit.
    dupack_threshold: int = 3
    #: Sender-side ECN mark filter — :class:`~repro.core.pmsb_endhost.
    #: RttEcnFilter` turns a stock DCTCP sender into PMSB(e).  The factory
    #: is called once per flow so filters can keep per-flow statistics.
    ecn_filter_factory: Callable[[], EcnFilter] = field(default=AcceptAllFilter)
    #: Application pacing rate in bits/s of wire bytes (None = unpaced).
    #: Models the paper's "start a 5 Gbps TCP flow" sources.
    rate_limit_bps: Optional[float] = None
    #: Record every RTT sample on the sender (``sender.rtt_samples``).
    #: Opt-in: large-scale runs take millions of samples.
    record_rtt: bool = False
    #: Receiver acknowledgement coalescing: 1 = per-packet ACKs
    #: ("accurate ECN echo", the default); m > 1 enables delayed ACKs
    #: with the DCTCP CE state machine.
    ack_every: int = 1
    #: Delayed-ACK timer (only relevant when ``ack_every > 1``).
    delack_timeout: float = 1e-3

    def __post_init__(self) -> None:
        if self.mss_bytes < 64:
            raise ValueError("mss_bytes must be at least 64")
        if self.init_cwnd < 1.0:
            raise ValueError("init_cwnd must be at least 1 packet")
        if not 0.0 < self.g <= 1.0:
            raise ValueError("g must be in (0, 1]")
        if not 0.0 <= self.init_alpha <= 1.0:
            raise ValueError("init_alpha must be in [0, 1]")
        if self.max_cwnd < self.init_cwnd:
            raise ValueError("max_cwnd cannot be below init_cwnd")
        if self.min_rto <= 0 or self.max_rto < self.min_rto:
            raise ValueError("need 0 < min_rto <= max_rto")
        if self.dupack_threshold < 1:
            raise ValueError("dupack_threshold must be at least 1")
        if self.rate_limit_bps is not None and self.rate_limit_bps <= 0:
            raise ValueError("rate_limit_bps must be positive (or None)")
        if self.ack_every < 1:
            raise ValueError("ack_every must be at least 1")
        if self.delack_timeout <= 0:
            raise ValueError("delack_timeout must be positive")
