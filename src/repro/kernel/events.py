"""Event priorities and cancellation tokens for the scheduler.

Scheduled callbacks fire in ``(time, priority, seq)`` order, where
``seq`` is a scheduler assigned monotone counter — this makes runs
*deterministic*: two events at the same time and priority always fire in
scheduling order, independent of hash seeds or heap internals.  An
:class:`Event` is the token that cancels one of them.
"""

from __future__ import annotations

import enum
from typing import Any


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
    """The cancellation token of a scheduled callback.

    Returned by :meth:`repro.kernel.scheduler.Simulator.schedule` and
    friends; user code only keeps it to :meth:`cancel`.

    The scheduler's heap itself stores plain tuples (see
    :mod:`repro.kernel.dispatch`) holding the time, priority, sequence
    number, callback, arguments and span context; an :class:`Event`
    rides in the tuple's last slot — the ``schedule_bound`` fast path
    stores ``None`` there and allocates no token at all.  ``owner``
    points back at the scheduler while the event sits in the queue so
    cancellation can maintain an exact dead-entry count for O(1)
    ``pending()`` and threshold-triggered heap compaction.
    """

    __slots__ = ("cancelled", "owner")

    def __init__(self, owner: Any) -> None:
        self.cancelled = False
        self.owner = owner

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it.

        Cancelling is O(1); the dead entry is discarded lazily when it
        reaches the head of the heap, or in bulk when dead entries come to
        dominate the queue.  Until then the heap entry still holds the
        callback and its arguments.  Cancelling an already-fired or
        already-cancelled event is a no-op.
        """
        if self.cancelled:
            return
        self.cancelled = True
        owner = self.owner
        if owner is not None:
            self.owner = None
            owner._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event [{state}]>"
