"""Homogeneous event classes: named timer families on the kernel heap.

Much of the simulated work in the pervasive stack is *families of
identical tiny timers* — CSMA/CA backoff expiries, genie-ACK turnarounds,
lease-expiry sweeps, framebuffer poll pacing.  A producer registers each
family once through :meth:`Simulator.batch_class` (same callback
``fn(owner, payload)``, per-entry owner and payload) and schedules
entries on the returned :class:`BatchClass`.

Every entry is an ordinary heap entry: uncancellable classes take the
``schedule_bound`` fast path (one tuple, no handle), cancellable ones the
public ``schedule``/``schedule_at`` path and return its :class:`Event`
handle.  Entries consume the kernel's global sequence counter like any
other event, so a seeded run's interleaving is fixed by the
``(time, priority, seq)`` key alone.

There is deliberately no separate store for these classes: on every
real workload same-deadline cohorts average 1.00-1.01 entries, so
per-cohort bookkeeping never amortises and one C ``heappush``/``heappop``
per timer is the cheapest dispatch (see docs/performance.md).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from .errors import ScheduleError


class BatchClass:
    """One registered timer family; entries land on the simulator heap.

    Create through :meth:`Simulator.batch_class`, never directly.
    """

    __slots__ = ("sim", "name", "fn", "priority", "cancellable")

    def __init__(self, sim, name: str, fn: Callable[[int, Any], None],
                 priority: int, cancellable: bool = True) -> None:
        self.sim = sim
        self.name = name
        self.fn = fn
        self.priority = int(priority)
        self.cancellable = bool(cancellable)

    def schedule(self, delay: float, owner: int = 0, payload: Any = None):
        """Schedule one entry ``delay`` seconds from now.  Returns its
        :class:`Event` handle for cancellable classes, None otherwise."""
        if self.cancellable:
            return self.sim.schedule(delay, self.fn, owner, payload,
                                     priority=self.priority)
        self.sim.schedule_bound(delay, self.fn, (owner, payload),
                                priority=self.priority)
        return None

    def schedule_at(self, time: float, owner: int = 0, payload: Any = None):
        """Schedule one entry at absolute simulation time ``time``."""
        event = self.sim.schedule_at(time, self.fn, owner, payload,
                                     priority=self.priority)
        return event if self.cancellable else None

    def schedule_many_at(self, times: Sequence[float],
                         owners: Optional[Sequence[int]] = None,
                         payloads: Optional[Sequence[Any]] = None) -> None:
        """Bulk scheduling at *absolute* times: the cross-shard injection
        path (:mod:`repro.kernel.shard`).  Non-cancellable classes only;
        every time must be ``>= now``, validated up front so a bad batch
        consumes no sequence numbers."""
        if self.cancellable:
            raise ScheduleError(
                "schedule_many_at requires a non-cancellable batch class")
        sim = self.sim
        now = sim._now
        for time in times:
            if time < now:
                raise ScheduleError(
                    f"cannot schedule at {time!r}, now is {now!r}")
        fn = self.fn
        priority = self.priority
        for i, time in enumerate(times):
            owner = owners[i] if owners is not None else 0
            payload = payloads[i] if payloads is not None else None
            # schedule_at keeps the stored deadline exact (now + (t - now)
            # would round).
            sim.schedule_at(float(time), fn, owner, payload,
                            priority=priority)

    def stats(self) -> dict:
        """Per-class entry for the "kernel" metrics probe.  Entries are
        plain heap events and are not counted per class, so both fields
        read 0; the keys stay for probe consumers."""
        return {"executed": 0, "cohorts": 0}
