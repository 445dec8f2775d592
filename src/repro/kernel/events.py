"""Event objects used by the discrete-event scheduler.

An :class:`Event` is a callback bound to a simulation time.  Events fire
in ``(time, priority, seq)`` order, where ``seq`` is a scheduler
assigned monotone counter — this makes runs *deterministic*: two events at
the same time and priority always fire in scheduling order, independent of
hash seeds or heap internals.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional


class Priority(enum.IntEnum):
    """Tie-break priority for events that share a timestamp.

    Lower values fire first.  The bands are chosen so that physical-medium
    bookkeeping (transmission ends) resolves before protocol reactions, and
    measurement hooks observe a settled state.
    """

    MEDIUM = 0     #: PHY/medium bookkeeping (carrier drop, delivery).
    PROTOCOL = 10  #: MAC/transport/middleware timers and handlers.
    APP = 20       #: application and user-behaviour callbacks.
    MONITOR = 30   #: metrics / instrumentation sampling.


class Event:
    """A scheduled callback.

    Instances are created by :meth:`repro.kernel.scheduler.Simulator.schedule`
    and friends; user code normally only keeps them to :meth:`cancel`.

    The scheduler's heap itself stores plain tuples (see
    :mod:`repro.kernel.dispatch`); an :class:`Event` is the *cancellation
    handle* riding in the tuple's last slot — the ``schedule_bound`` fast
    path stores ``None`` there and allocates no handle at all.  ``owner``
    points back at the scheduler while the event sits in the queue so
    cancellation can maintain an exact dead-entry count for O(1)
    ``pending()`` and threshold-triggered heap compaction.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled",
                 "owner", "ctx")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple = (),
    ) -> None:
        self.time = float(time)
        self.priority = int(priority)
        self.seq = int(seq)
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.cancelled = False
        self.owner: Optional[Any] = None
        #: span id current when the event was scheduled; the run loop
        #: restores it so causal span context crosses event boundaries.
        self.ctx: Optional[int] = None

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it.

        Cancelling is O(1); the dead entry is discarded lazily when it
        reaches the head of the heap, or in bulk when dead entries come to
        dominate the queue.  Cancelling an already-fired or already-cancelled
        event is a no-op.
        """
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references eagerly so cancelled closures do not pin objects
        # (NICs, frames, sessions) until the heap drains.
        self.fn = None
        self.args = ()
        owner = self.owner
        if owner is not None:
            self.owner = None
            owner._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6f} p={self.priority} {name} [{state}]>"
