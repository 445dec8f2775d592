"""Leases: time-bounded grants that make the middleware self-healing.

Jini's central insight — adopted wholesale by the Aroma design — is that
every grant (a registration, an event subscription, a session) expires
unless actively renewed.  The paper's abstract-layer analysis asks for
"mechanisms ... to deal with users who forget to relinquish control of the
projector without relying on a system administrator to intervene"; leases
are that mechanism, and experiment E4 measures how the lease duration
bounds recovery time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..kernel.errors import ConfigurationError, LeaseError
from ..kernel.events import Priority
from ..kernel.scheduler import Simulator

def _fire_sweep(_owner: int, table: "LeaseTable") -> None:
    """Sweep-timer callback (module-level so every table shares
    one ``lease.sweep`` class; see repro.kernel.batchq)."""
    table._sweep_fire()


@dataclass
class Lease:
    """One time-bounded grant."""

    lease_id: int
    holder: str          #: address/name of the grantee
    resource: str        #: what is leased (service id, session key...)
    granted_at: float
    duration: float
    expires_at: float
    cancelled: bool = False

    def remaining(self, now: float) -> float:
        return max(0.0, self.expires_at - now)

    def expired(self, now: float) -> bool:
        return self.cancelled or now >= self.expires_at


class LeaseTable:
    """Grants, renewals, cancellations and expiry sweeping for one granter.

    Args:
        sim: simulator (clock + sweep scheduling).
        name: granter name for traces.
        max_duration: longest lease the granter will give (requests are
            clamped, Jini-style).
        on_expired: ``callback(lease)`` fired when a sweep removes a lease.
        sweep_interval: how often to look for expired leases.
    """

    def __init__(self, sim: Simulator, name: str = "leases",
                 max_duration: float = 300.0,
                 on_expired: Optional[Callable[[Lease], None]] = None,
                 sweep_interval: float = 1.0) -> None:
        if max_duration <= 0 or sweep_interval <= 0:
            raise ConfigurationError("durations must be positive")
        self.sim = sim
        self.name = name
        self.max_duration = max_duration
        self.on_expired = on_expired
        self._leases: Dict[int, Lease] = {}
        self.granted_count = 0
        self.renewed_count = 0
        self.expired_count = 0
        # Lease churn aggregated across every table on the simulator —
        # the "how much self-healing is going on" health signal.
        metrics = sim.metrics
        self._m_granted = metrics.counter("leases.granted")
        self._m_renewed = metrics.counter("leases.renewed")
        self._m_expired = metrics.counter("leases.expired")
        self._m_cancelled = metrics.counter("leases.cancelled")
        # The periodic expiry sweep rides the kernel's batched timer path:
        # one shared ``lease.sweep`` class per simulator, self-rescheduling
        # with the same (time, priority, seq) consumption a PeriodicTask
        # would have (one event per period, re-armed after the sweep body).
        self._sweep_interval = sweep_interval
        self._sweep_stopped = False
        self._sweep_q = sim.batch_class("lease.sweep", _fire_sweep,
                                        priority=int(Priority.PROTOCOL),
                                        cancellable=True, shared=True)
        # Pre-bound handler table: resolve the batch queue's schedule
        # method once so each re-arm is a plain call, not an attribute walk.
        self._schedule_sweep = self._sweep_q.schedule
        self._sweep_handle = self._schedule_sweep(sweep_interval,
                                                  payload=self)

    # ------------------------------------------------------------------
    def grant(self, holder: str, resource: str, duration: float) -> Lease:
        """Grant a lease, clamping the requested duration."""
        if duration <= 0:
            raise LeaseError(f"non-positive lease duration {duration!r}")
        duration = min(duration, self.max_duration)
        now = self.sim.now
        lease = Lease(self.sim.next_seq("discovery.lease_seq"),
                      holder, resource, now, duration,
                      now + duration)
        self._leases[lease.lease_id] = lease
        self.granted_count += 1
        self._m_granted.add()
        self.sim.trace("lease.grant", self.name,
                       f"lease {lease.lease_id} -> {holder} for {resource} "
                       f"({duration:.0f}s)")
        return lease

    def renew(self, lease_id: int, duration: Optional[float] = None) -> Lease:
        """Extend a live lease; raises :class:`LeaseError` if unknown/expired."""
        lease = self._leases.get(lease_id)
        if lease is None or lease.expired(self.sim.now):
            raise LeaseError(f"lease {lease_id} unknown or expired")
        duration = min(duration if duration is not None else lease.duration,
                       self.max_duration)
        lease.duration = duration
        lease.expires_at = self.sim.now + duration
        self.renewed_count += 1
        self._m_renewed.add()
        return lease

    def cancel(self, lease_id: int) -> Lease:
        """Explicitly relinquish; the well-behaved-user path."""
        lease = self._leases.pop(lease_id, None)
        if lease is None:
            raise LeaseError(f"lease {lease_id} unknown")
        lease.cancelled = True
        self._m_cancelled.add()
        return lease

    def get(self, lease_id: int) -> Optional[Lease]:
        return self._leases.get(lease_id)

    def holder_of(self, resource: str) -> Optional[Lease]:
        """The live lease on ``resource``, if any."""
        now = self.sim.now
        for lease in self._leases.values():
            if lease.resource == resource and not lease.expired(now):
                return lease
        return None

    # ------------------------------------------------------------------
    def sweep(self) -> List[Lease]:
        """Remove expired leases, firing ``on_expired`` for each."""
        now = self.sim.now
        dead = [l for l in self._leases.values() if l.expired(now)]
        for lease in dead:
            del self._leases[lease.lease_id]
            self.expired_count += 1
            self._m_expired.add()
            self.sim.trace("lease.expire", self.name,
                           f"lease {lease.lease_id} of {lease.holder} on "
                           f"{lease.resource} expired")
            if self.on_expired is not None:
                self.on_expired(lease)
        return dead

    def live(self) -> List[Lease]:
        now = self.sim.now
        return [l for l in self._leases.values() if not l.expired(now)]

    def _sweep_fire(self) -> None:
        if self._sweep_stopped:
            return
        self.sweep()
        if not self._sweep_stopped and not self.sim.stopped:
            self._sweep_handle = self._schedule_sweep(
                self._sweep_interval, payload=self)

    def stop(self) -> None:
        self._sweep_stopped = True
        if self._sweep_handle is not None:
            self._sweep_handle.cancel()
            self._sweep_handle = None

    def __len__(self) -> int:
        return len(self._leases)
