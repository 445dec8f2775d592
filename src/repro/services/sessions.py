"""Session objects: exclusive, token-guarded use of a shared service.

"Session objects are used to ensure that another user cannot inadvertently
'hijack' either the use or control of the projector."  And the paper's
open problem: "deal with users who forget to relinquish control of the
projector without relying on a system administrator to intervene."

:class:`SessionManager` implements both: a single-holder resource guarded
by an unguessable token, with *optional* lease-based expiry.  Running it
with ``use_leases=False`` reproduces the stuck-projector failure mode
(E4's ablation); with leases, a forgetful user's session is reclaimed in
bounded time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..discovery.leases import Lease, LeaseTable
from ..kernel.errors import SessionError
from ..kernel.scheduler import Simulator


def _next_session_seq(sim: Simulator) -> int:
    """Per-simulator session sequence (lives in ``sim.context``).

    Session ids and tokens embed this counter, and token *length* feeds
    ``len(str)``-based RPC wire sizes — a process-global counter made
    run N+1 ship different byte counts than run N for the same seed.
    Scoping it to the simulator keeps twin runs byte-identical with no
    test-side pinning.
    """
    return sim.next_seq("services.session_seq")


@dataclass
class Session:
    """One granted session."""

    session_id: int
    owner: str
    resource: str
    token: str
    granted_at: float
    lease: Optional[Lease] = None
    released: bool = False


class SessionManager:
    """Single-holder session control for one resource.

    Args:
        sim: simulator.
        resource: name of the guarded resource (e.g. ``"projection"``).
        use_leases: grant sessions under leases that expire unless renewed
            (the paper's remedy).  When False sessions last until released
            — or forever, if the user forgets.
        max_lease: clamp for session lease duration.
    """

    def __init__(self, sim: Simulator, resource: str, use_leases: bool = True,
                 max_lease: float = 120.0, sweep_interval: float = 1.0) -> None:
        self.sim = sim
        self.resource = resource
        self.use_leases = use_leases
        self._current: Optional[Session] = None
        self._rng = sim.rng(f"sessions.{resource}")
        self.leases: Optional[LeaseTable] = None
        if use_leases:
            self.leases = LeaseTable(sim, f"{resource}.sessions",
                                     max_duration=max_lease,
                                     on_expired=self._lease_expired,
                                     sweep_interval=sweep_interval)
        self.acquisitions = 0
        self.rejections = 0
        self.releases = 0
        self.evictions = 0
        self.invalid_tokens = 0
        self.on_evicted: Optional[Callable[[Session], None]] = None
        # Queue-wait latency lives in the registry; ``wait_log`` stays as
        # an alias of the recorder's sample list for existing consumers.
        metrics = sim.metrics
        self._m_wait = metrics.latency(f"session.{resource}.wait",
                                       unique=True)
        self.wait_log: List[float] = self._m_wait.samples
        self._m_waiters = metrics.gauge(f"session.{resource}.waiters",
                                        unique=True)
        metrics.register_probe(f"session.{resource}", lambda: {
            "holder": self.holder,
            "acquisitions": self.acquisitions,
            "rejections": self.rejections,
            "releases": self.releases,
            "evictions": self.evictions,
            "invalid_tokens": self.invalid_tokens,
            "queue_length": len(self._waiters),
        })
        #: FIFO of (owner, duration, callback, enqueued_at) waiting for the
        #: session — the "graceful resolution" mechanism the paper asks
        #: for instead of making users poll.
        self._waiters: List[tuple] = []

    # ------------------------------------------------------------------
    def acquire(self, owner: str, duration: float = 60.0) -> Session:
        """Grant the session to ``owner`` or raise :class:`SessionError`."""
        # The span makes session setup visible in the causal tree: when
        # the request arrived via transport, this nests under the delivery
        # span; a denial ends it with status "error".
        with self.sim.span("session.acquire", self.resource, owner=owner):
            if self._current is not None and not self._current.released:
                self.rejections += 1
                self.sim.issue(
                    "session", self.resource,
                    f"{owner} denied: {self._current.owner} holds the session",
                    holder=self._current.owner, requester=owner)
                raise SessionError(
                    f"{self.resource} is in use by {self._current.owner}")
            token = (f"tok-{_next_session_seq(self.sim)}-"
                     f"{self._rng.integers(1, 1 << 30)}")
            lease = (self.leases.grant(owner, self.resource, duration)
                     if self.leases is not None else None)
            session = Session(_next_session_seq(self.sim), owner,
                              self.resource, token, self.sim.now, lease)
            self._current = session
            self.acquisitions += 1
            self.sim.trace("session.acquire", self.resource,
                           f"{owner} acquired the session")
            return session

    def acquire_or_wait(self, owner: str,
                        callback: Callable[[Session], None],
                        duration: float = 60.0) -> Optional[Session]:
        """Acquire now if free, else join the FIFO wait queue.

        Returns the session when granted immediately, otherwise None and
        ``callback(session)`` fires when the session becomes ours.  This
        is the paper's "gracefully resolve issues related to attempts by
        multiple users ... with minimal user intervention": nobody polls,
        nobody calls the administrator.
        """
        try:
            session = self.acquire(owner, duration)
        except SessionError:
            self._waiters.append((owner, duration, callback, self.sim.now))
            self._m_wait.start(owner)
            self._m_waiters.set(len(self._waiters))
            self.sim.trace("session.wait", self.resource,
                           f"{owner} queued (position {len(self._waiters)})")
            return None
        self.sim.call_soon(callback, session)
        return session

    def queue_length(self) -> int:
        return len(self._waiters)

    def _grant_next(self) -> None:
        while self._waiters and self.available:
            owner, duration, callback, _enqueued_at = self._waiters.pop(0)
            try:
                session = self.acquire(owner, duration)
            except SessionError:  # pragma: no cover - available was True
                return
            # stop() appends the wait to the recorder's samples — the very
            # list ``wait_log`` aliases, so consumers see the same values.
            self._m_wait.stop(owner)
            self._m_waiters.set(len(self._waiters))
            self.sim.call_soon(callback, session)

    def validate(self, token: str) -> bool:
        """Hijack prevention: is ``token`` the live session's token?"""
        current = self._current
        ok = (current is not None and not current.released
              and current.token == token
              and (current.lease is None
                   or not current.lease.expired(self.sim.now)))
        if not ok:
            self.invalid_tokens += 1
        return ok

    def renew(self, token: str, duration: Optional[float] = None) -> bool:
        """Extend the session lease; False if the token is stale."""
        if not self.validate(token):
            return False
        session = self._current
        if session is not None and session.lease is not None and self.leases:
            self.leases.renew(session.lease.lease_id, duration)
        return True

    def release(self, token: str) -> bool:
        """The well-behaved path: explicitly give the session back."""
        if not self.validate(token):
            return False
        session = self._current
        assert session is not None
        session.released = True
        if session.lease is not None and self.leases is not None:
            try:
                self.leases.cancel(session.lease.lease_id)
            except Exception:  # lease may have just expired; that's fine
                pass
        self._current = None
        self.releases += 1
        self.sim.trace("session.release", self.resource,
                       f"{session.owner} released the session")
        self._grant_next()
        return True

    def force_release(self, admin: str) -> bool:
        """The system-administrator path the paper wants to avoid."""
        session = self._current
        if session is None or session.released:
            return False
        session.released = True
        self._current = None
        self.evictions += 1
        self.sim.issue("session", self.resource,
                       f"administrator {admin} force-released "
                       f"{session.owner}'s session",
                       admin=admin, owner=session.owner)
        self._grant_next()
        return True

    # ------------------------------------------------------------------
    def _lease_expired(self, lease: Lease) -> None:
        session = self._current
        if session is None or session.lease is None:
            return
        if session.lease.lease_id != lease.lease_id or session.released:
            return
        session.released = True
        self._current = None
        self.evictions += 1
        self.sim.issue("session", self.resource,
                       f"stale session of {session.owner} reclaimed by lease "
                       "expiry (holder forgot to relinquish)",
                       owner=session.owner)
        if self.on_evicted is not None:
            self.on_evicted(session)
        self._grant_next()

    # ------------------------------------------------------------------
    @property
    def holder(self) -> Optional[str]:
        if self._current is None or self._current.released:
            return None
        return self._current.owner

    @property
    def available(self) -> bool:
        return self.holder is None
