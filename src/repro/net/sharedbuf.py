"""Switch-wide shared-buffer memory with per-port accounting.

Real datacenter switches do not give every output port a private
buffer: all ports of a chip draw from one shared memory pool, and a
*buffer-sharing policy* decides how much of it any single port may
occupy.  This module is the simulator's one model of that memory:

- :class:`SharedBuffer` owns the switch-wide capacity and the totals;
- every member port holds a :class:`PortBufferAccount` in its ``pool``
  slot, which the port debits/credits, so the shared layer tracks each
  port's occupancy individually (and the auditor can prove Σ per-port
  debits == pool occupancy at every event);
- a :class:`SharingPolicy` decides admission from the totals *and* the
  admitting port's own account.

Policies
--------

- ``"complete"`` — complete sharing: admit while the pool is not full.
  One congested port can take the entire memory.
- ``"static"`` — hard partition: every port is capped at
  ``capacity / n_ports`` regardless of what the others use.
- ``"dt"`` — classic Dynamic Threshold (Choudhury–Hahne): a port may
  hold at most ``alpha × free`` packets, where ``free`` is the unused
  pool space.  A lone hog self-limits to ``alpha/(1+alpha)`` of the
  buffer, always leaving headroom for bursts on other ports.
- ``"bshare"`` — BShare-style *queueing-delay-driven* sharing
  (Agarwal et al., PAPERS.md): the limit is expressed as a delay
  budget, not a packet count.  A port admits while its queueing delay
  (``byte_count × 8 / drain_rate``) stays below
  ``target_delay × free/capacity``.  Ports that drain fast earn deep
  buffers (incast absorption); ports whose drain is slow or stalled are
  throttled early (victim protection) — exactly the regimes where
  delay-driven sharing beats occupancy-driven DT.

Every policy decision is a **pure** function of the account/pool
counters: speculative callers of ``admits()`` — the auditor, metrics
probes — never perturb state.

Zero cost when disabled: a port built without an account keeps
``pool=None`` and the datapath is byte-for-byte the pre-shared-buffer
code path — no new branches were added to :class:`~repro.net.port.Port`.

:class:`SharedBufferSpec` is the declarative form: it parses the CLI's
``--shared-buffer policy:key=val`` spelling, renders into
:class:`~repro.store.ExperimentSpec` params (so store-backed sweeps
cache shared-buffer points correctly), and builds the runtime objects.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import (Any, Dict, Iterable, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

from .._specparse import parse_spec

if TYPE_CHECKING:  # pragma: no cover
    from .link import Link

__all__ = [
    "SHARING_POLICIES",
    "BSharePolicy",
    "CompleteSharingPolicy",
    "DynamicThresholdPolicy",
    "PortBufferAccount",
    "SharedBuffer",
    "SharedBufferSpec",
    "SharingPolicy",
    "StaticPartitionPolicy",
]

#: Recognized policy names (``SharedBufferSpec.policy`` values).
SHARING_POLICIES = ("complete", "static", "dt", "bshare")


# -- sharing policies ---------------------------------------------------------

class SharingPolicy:
    """Admission strategy for one :class:`SharedBuffer`.

    ``admits`` must be **pure**: it is consulted speculatively by the
    auditor's drop-legality check and by metrics probes, so it may not
    mutate policy or pool state.
    """

    #: Name used in specs, reports and experiment rows.
    name = "policy"

    def admits(self, shared: "SharedBuffer",
               account: "PortBufferAccount") -> bool:
        """May ``account``'s port admit one more packet right now?"""
        raise NotImplementedError


class CompleteSharingPolicy(SharingPolicy):
    """Admit while the pool has free space — no per-port protection."""

    name = "complete"

    def admits(self, shared: "SharedBuffer",
               account: "PortBufferAccount") -> bool:
        return not shared.is_full


class StaticPartitionPolicy(SharingPolicy):
    """Hard split: every port owns ``capacity / n_ports`` exclusively."""

    name = "static"

    def admits(self, shared: "SharedBuffer",
               account: "PortBufferAccount") -> bool:
        if shared.is_full or not shared.accounts:
            return not shared.is_full
        quota = shared.capacity_packets / len(shared.accounts)
        return account.packet_count < quota


class DynamicThresholdPolicy(SharingPolicy):
    """Choudhury–Hahne DT enforced against the *port's own* occupancy.

    The limit ``alpha × free`` governs each port individually while
    ``free`` reflects the whole pool.
    """

    name = "dt"

    def __init__(self, alpha: float = 1.0):
        if alpha <= 0:
            raise ValueError("dt: alpha must be positive")
        self.alpha = alpha

    def threshold(self, shared: "SharedBuffer") -> float:
        """The instantaneous per-port occupancy limit ``alpha × free``."""
        return self.alpha * max(0, shared.free_packets)

    def admits(self, shared: "SharedBuffer",
               account: "PortBufferAccount") -> bool:
        return (not shared.is_full
                and account.packet_count < self.threshold(shared))


class BSharePolicy(SharingPolicy):
    """BShare-style queueing-delay-driven sharing.

    A port's buffer claim is bounded by the *time* its backlog takes to
    drain, not by a packet count: admit while

        ``account.byte_count × 8 / drain_bps  <  target_delay × free/C``

    The delay budget contracts as the pool fills (DT-like headroom
    preservation), but the packet-count limit it implies scales with
    the port's drain rate — a line-rate port absorbing an incast earns
    a deep buffer, while a port whose backlog would linger (the victim
    regime: slow drain, standing queue) is throttled early.
    ``min_budget_fraction`` keeps a small unconditional budget so a
    busy pool can never starve an empty port of its first packets.
    """

    name = "bshare"

    def __init__(self, target_delay: float = 200e-6,
                 min_budget_fraction: float = 0.05):
        if target_delay <= 0:
            raise ValueError("bshare: target_delay must be positive")
        if not 0.0 <= min_budget_fraction <= 1.0:
            raise ValueError(
                "bshare: min_budget_fraction must be in [0, 1]")
        self.target_delay = target_delay
        self.min_budget_fraction = min_budget_fraction

    def delay_budget(self, shared: "SharedBuffer") -> float:
        """Current per-port queueing-delay budget in seconds."""
        free_fraction = shared.free_packets / shared.capacity_packets
        return self.target_delay * max(self.min_budget_fraction,
                                       free_fraction)

    def admits(self, shared: "SharedBuffer",
               account: "PortBufferAccount") -> bool:
        if shared.is_full:
            return False
        delay = account.byte_count * 8.0 / account.drain_bps
        return delay < self.delay_budget(shared)


def _make_policy(policy: str, alpha: float,
                 target_delay: float) -> SharingPolicy:
    if policy == "complete":
        return CompleteSharingPolicy()
    if policy == "static":
        return StaticPartitionPolicy()
    if policy == "dt":
        return DynamicThresholdPolicy(alpha)
    if policy == "bshare":
        return BSharePolicy(target_delay)
    raise ValueError(f"unknown sharing policy {policy!r}; "
                     f"choose from {SHARING_POLICIES}")


# -- the shared memory and its per-port accounts ------------------------------

class PortBufferAccount:
    """One port's ledger against a :class:`SharedBuffer`.

    :class:`~repro.net.port.Port` holds it in its ``pool`` slot and
    calls ``admits``/``add``/``remove``/``credit``; an account belongs
    to exactly one port.  Every mutation updates the account *and* the
    shared totals; both carry negative-accounting guards, so a double
    credit (the old ``Port.reset`` bug) trips immediately.
    """

    __slots__ = ("shared", "name", "drain_bps", "packet_count",
                 "byte_count", "rejections")

    def __init__(self, shared: "SharedBuffer", name: str, drain_bps: float):
        if drain_bps <= 0:
            raise ValueError("account drain rate must be positive (bits/s)")
        self.shared = shared
        self.name = name
        self.drain_bps = drain_bps
        self.packet_count = 0
        self.byte_count = 0
        #: Failed admissions, charged by the port at the drop site.
        self.rejections = 0

    def admits(self) -> bool:
        """May this account's port admit one more packet right now?

        A **pure** query, delegated to the sharing policy, which reads
        this account's own ledger (equal to its port's occupancy; the
        auditor cross-checks that on every event).  The drop site —
        :meth:`repro.net.port.Port.enqueue` — charges ``rejections``
        when an actual admission fails.
        """
        return self.shared.policy.admits(self.shared, self)

    def add(self, nbytes: int) -> None:
        self.packet_count += 1
        self.byte_count += nbytes
        shared = self.shared
        shared.packet_count += 1
        shared.byte_count += nbytes
        if shared.packet_count > shared.peak_packets:
            shared.peak_packets = shared.packet_count

    def remove(self, nbytes: int) -> None:
        self.credit(1, nbytes)

    def credit(self, packets: int, nbytes: int) -> None:
        """Return ``packets``/``nbytes`` to the pool in one step.

        Used per packet by the transmission path (via :meth:`remove`)
        and in bulk by :meth:`repro.net.port.Port.reset`; both routes
        land here so the guards and shared-total bookkeeping can never
        be bypassed.
        """
        self.packet_count -= packets
        self.byte_count -= nbytes
        shared = self.shared
        shared.packet_count -= packets
        shared.byte_count -= nbytes
        if (self.packet_count < 0 or self.byte_count < 0
                or shared.packet_count < 0 or shared.byte_count < 0):
            raise RuntimeError(
                f"{shared.name}:{self.name}: shared-buffer accounting went "
                f"negative (account {self.packet_count}pkts/"
                f"{self.byte_count}B, pool {shared.packet_count}pkts/"
                f"{shared.byte_count}B)")

    def queueing_delay(self) -> float:
        """This port's instantaneous backlog drain time in seconds."""
        return self.byte_count * 8.0 / self.drain_bps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PortBufferAccount({self.name}, {self.packet_count}pkts, "
                f"pool={self.shared.name})")


class SharedBuffer:
    """The switch-wide memory: capacity, totals, accounts, policy."""

    __slots__ = ("name", "capacity_packets", "policy", "packet_count",
                 "byte_count", "peak_packets", "accounts")

    def __init__(self, capacity_packets: int,
                 policy: Optional[SharingPolicy] = None,
                 name: str = "sharedbuf"):
        if capacity_packets is None or capacity_packets < 1:
            raise ValueError("shared buffer needs a finite positive "
                             "capacity in packets")
        self.name = name
        self.capacity_packets = int(capacity_packets)
        self.policy = policy if policy is not None else CompleteSharingPolicy()
        self.packet_count = 0
        self.byte_count = 0
        #: High-water mark of the total occupancy (reporting).
        self.peak_packets = 0
        self.accounts: List[PortBufferAccount] = []

    @property
    def is_full(self) -> bool:
        return self.packet_count >= self.capacity_packets

    @property
    def free_packets(self) -> int:
        """Unused pool space in packets (never negative)."""
        return max(0, self.capacity_packets - self.packet_count)

    @property
    def rejections(self) -> int:
        """Total failed admissions across all member ports."""
        return sum(account.rejections for account in self.accounts)

    def port_account(self, name: str, link: "Link") -> PortBufferAccount:
        """Open a ledger for one member port.

        Called by the topology builders right before constructing the
        :class:`~repro.net.port.Port`; the outgoing link supplies the
        drain rate the BShare policy converts occupancy into delay with.
        """
        account = PortBufferAccount(self, name, link.bandwidth)
        self.accounts.append(account)
        return account

    def occupancy_by_port(self) -> Dict[str, int]:
        """Per-port packet occupancy snapshot (reporting/auditing)."""
        return {account.name: account.packet_count
                for account in self.accounts}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SharedBuffer({self.name}, {self.packet_count}/"
                f"{self.capacity_packets}pkts, "
                f"policy={self.policy.name}, "
                f"ports={len(self.accounts)})")


# -- declarative spec (CLI spelling + ExperimentSpec params) ------------------

@dataclass(frozen=True)
class SharedBufferSpec:
    """One shared-buffer configuration, declaratively.

    Pure data (hashable, JSON-able via :meth:`to_param`), so it rides
    inside an :class:`~repro.store.ExperimentSpec` — two sweep points
    with equal specs share one cache key, and any change to the policy
    parameters re-keys the affected points.
    """

    #: Sharing policy: one of :data:`SHARING_POLICIES`.
    policy: str = "dt"
    #: Switch-wide capacity in packets.
    capacity: int = 256
    #: DT aggressiveness (``"dt"`` only).
    alpha: float = 1.0
    #: Queueing-delay target in seconds (``"bshare"`` only).
    target_delay: float = 200e-6

    def __post_init__(self):
        if self.policy not in SHARING_POLICIES:
            raise ValueError(f"unknown sharing policy {self.policy!r}; "
                             f"choose from {SHARING_POLICIES}")
        if self.capacity < 1:
            raise ValueError(f"capacity must be a positive packet count, "
                             f"got {self.capacity!r}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        if self.target_delay <= 0:
            raise ValueError(f"target_delay must be positive, "
                             f"got {self.target_delay!r}")

    def build(self, name: str = "sharedbuf") -> SharedBuffer:
        """Construct the runtime :class:`SharedBuffer` this spec names."""
        return SharedBuffer(
            self.capacity,
            _make_policy(self.policy, self.alpha, self.target_delay),
            name=name,
        )

    def to_param(self) -> Tuple[Tuple[str, Any], ...]:
        """Canonical nested-tuple form for ``ExperimentSpec`` params."""
        return tuple(sorted(asdict(self).items()))

    @classmethod
    def from_param(cls, pairs: Iterable[Sequence[Any]]) -> "SharedBufferSpec":
        """Rebuild a spec from :meth:`to_param` output (tuples or the
        JSON lists a stored record round-trips them into)."""
        data = {str(key): value for key, value in pairs}
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown SharedBufferSpec fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def parse(cls, text: str) -> "SharedBufferSpec":
        """Parse the CLI spelling ``policy:key=value,key=value``.

        Example: ``dt:capacity=200,alpha=2`` or
        ``bshare:capacity=128,target_delay=100e-6``.  ``capacity`` is an
        int, everything else a float.
        """
        policy, kwargs = parse_spec(text, "shared-buffer", {
            "capacity": int, "alpha": float, "target_delay": float})
        try:
            return cls(policy=policy, **kwargs)
        except TypeError as exc:
            raise ValueError(
                f"bad shared-buffer spec {text!r}: {exc}") from None
