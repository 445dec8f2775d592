"""The discrete-event simulation kernel.

:class:`Simulator` is the heart of the reproduction: every substrate the
paper depends on (radio environment, 802.11-style MAC, transport, Jini-style
discovery, VNC-like framebuffer, simulated users) runs as callbacks on a
single deterministic event loop.

Design notes (following the HPC guides' "make it work, measure, then
optimise the bottleneck" workflow):

* The hot path is ``heapq`` push/pop of plain 7-tuples ``(time, priority,
  seq, fn, args, ctx, handle)`` — profiling showed per-event attribute
  walks and Python-level ``Event.__lt__`` comparisons dominated, so heap
  entries are tuples compared by the C tuple comparator (``seq`` is
  unique, so comparison never reaches ``fn``) and unpacked in one
  instruction.  ``handle`` is the :class:`Event` cancellation handle for
  public ``schedule`` calls and ``None`` on the
  :meth:`Simulator.schedule_bound` fast path.
* ``run()`` drives one loop, :func:`repro.kernel.dispatch.loop_bounded`;
  an unbounded run passes ``inf`` for both bounds.
* Bulk cancellation (periodic tasks, retry timers) is O(1) per cancel and
  triggers a heap compaction once dead entries outnumber live ones, so
  ``run``/``peek``/``pending`` never degrade to O(dead events).
* Determinism: ties are broken by ``(priority, seq)``; all randomness flows
  through :class:`repro.kernel.random.RandomStreams`.
"""

from __future__ import annotations

import heapq
from math import inf, isfinite
from typing import Any, Callable, Dict, List, Optional

from .dispatch import loop_bounded
from .errors import ScheduleError, SimulationFinished
from .events import Event, Priority
from .random import RandomStreams
from .trace import NULL_SPAN, Span, Tracer

__all__ = ["COMPACT_MIN_QUEUE", "PeriodicTask", "Simulator"]

_PROTOCOL = int(Priority.PROTOCOL)

#: Minimum dead-entry count before cancellation-triggered compaction kicks
#: in — below this, lazy skip-at-head is always cheap enough.
COMPACT_MIN_QUEUE: int = 64


class Simulator:
    """A deterministic discrete-event simulator.

    Args:
        seed: root seed for all named random streams.
        trace: whether to record trace events.  The tracer stores them
            as columns the garbage collector does not walk, so tracing is
            cheap to leave on; heavy interference sweeps turn it off.
        trace_mode: ``"store"`` (the default) keeps every record and
            span; ``"stream"`` retains nothing and only feeds tracer
            subscribers (pair with a streaming aggregator or live
            exporter).
    Example:
        >>> sim = Simulator(seed=1)
        >>> fired = []
        >>> _ = sim.schedule(5.0, fired.append, "hello")
        >>> sim.run()
        1
        >>> (sim.now, fired)
        (5.0, ['hello'])
    """

    def __init__(
        self,
        seed: int = 0,
        trace: bool = True,
        trace_mode: str = "store",
    ) -> None:
        self._now: float = 0.0
        #: the heap of 7-tuples ``(time, priority, seq, fn, args, ctx,
        #: handle)``; ``handle`` is an :class:`Event` or None (fast path).
        self._queue: List[tuple] = []
        self._seq: int = 0
        self._running = False
        self._stopped = False
        #: exact count of cancelled events still sitting in the queue.
        self._cancelled_count: int = 0
        #: number of threshold-triggered heap compactions (observability).
        self.compactions: int = 0
        self.streams = RandomStreams(seed)
        self.tracer = Tracer(enabled=trace, mode=trace_mode)
        #: span id of the currently-active causal span (ambient context);
        #: captured by every schedule call and restored by the run loop.
        self._span_ctx: Optional[int] = None
        #: lazily-created MetricsRegistry (see the ``metrics`` property).
        self._metrics: Optional[Any] = None
        self.events_executed: int = 0
        #: arbitrary shared registry for components to find each other
        #: (e.g. the radio medium, the lookup service); keyed by name.
        self.context: Dict[str, Any] = {}
        #: ``kernel.cancelled_ratio`` gauge, created with the registry.
        self._cancel_gauge: Optional[Any] = None

    # ------------------------------------------------------------------
    # Clock and scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.PROTOCOL,
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        # Written so NaN fails too: a NaN key breaks the heap order, and
        # an event at inf would run the clock to inf.
        time = self._now + delay
        if not (delay >= 0 and time < inf):
            raise ScheduleError(f"negative, NaN or infinite delay {delay!r}")
        if self._stopped:
            raise SimulationFinished("simulator has been stopped")
        event = Event(self)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (float(time), int(priority), seq, fn,
                                     args, self._span_ctx, event))
        return event

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.PROTOCOL,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        if self._stopped:
            raise SimulationFinished("simulator has been stopped")
        if not self._now <= time < inf:
            raise ScheduleError(
                f"cannot schedule at {time!r}, now is {self._now!r}"
            )
        event = Event(self)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (float(time), int(priority), seq, fn,
                                     args, self._span_ctx, event))
        return event

    def schedule_bound(
        self,
        delay: float,
        fn: Callable[..., Any],
        args: tuple = (),
        priority: int = _PROTOCOL,
    ) -> None:
        """Fast-path scheduling for hot inner loops (MAC/radio timers).

        Skips the per-call validation of :meth:`schedule` (the callers pass
        non-negative protocol constants) and allocates no :class:`Event`
        at all: the heap entry is one tuple with a ``None`` handle slot.
        No handle is returned — fast-path events cannot be cancelled.

        ``args`` is passed as a tuple rather than ``*args`` so the call site
        builds exactly one tuple and the scheduler adds zero re-packing.
        """
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self._now + delay, priority, seq,
                                     fn, args, self._span_ctx, None))

    def call_soon(self, fn: Callable[..., Any], *args: Any,
                  priority: int = Priority.PROTOCOL) -> Event:
        """Schedule ``fn`` at the current time (after pending same-time events)."""
        return self.schedule_at(self._now, fn, *args, priority=priority)

    def every(
        self,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        start: Optional[float] = None,
        priority: int = Priority.PROTOCOL,
    ) -> "PeriodicTask":
        """Run ``fn(*args)`` every ``interval`` seconds until cancelled."""
        # Written so NaN fails too; an infinite interval would fire
        # forever at t=inf.
        if not 0 < interval < inf:
            raise ScheduleError(
                f"non-positive or non-finite interval {interval!r}")
        task = PeriodicTask(self, interval, fn, args, priority)
        first = self._now + (interval if start is None else start)
        task._arm(first)
        return task

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Execute events until the queue drains, ``until`` is reached, or
        ``max_events`` have run.  Returns the number of events executed by
        this call.

        When stopped by ``until``, the clock is advanced *to* ``until`` so a
        subsequent ``run`` resumes cleanly and time-based metrics integrate
        over the full horizon.  A run that ``max_events`` stops before the
        horizon leaves the clock at its last event.

        ``until`` must be finite: leave it out to run without a horizon,
        which keeps the clock at the last event.  The events run in
        :func:`~repro.kernel.dispatch.loop_bounded`, with ``inf`` for an
        absent bound.  Runs do not nest: a callback calling ``run()`` (or
        :meth:`step`) raises :class:`ScheduleError`, since the inner run
        would move the clock past the outer horizon.
        """
        if self._stopped:
            raise SimulationFinished("simulator has been stopped")
        if self._running:
            raise ScheduleError("run() called while the simulator is running")
        if until is not None and not isfinite(until):
            raise ScheduleError(f"non-finite run horizon {until!r}")
        self._running = True
        try:
            executed = loop_bounded(
                self, self._queue, inf if until is None else until,
                inf if max_events is None else max_events)
        finally:
            self._running = False
        if until is not None and not self._stopped and self._now < until:
            # A run cut short by ``max_events`` keeps its clock while live
            # events due by the horizon remain.
            head = self.peek()
            if head is None or head > until:
                self._now = until
        self.events_executed += executed
        self._update_cancel_gauge()
        return executed

    def step(self) -> bool:
        """Run exactly one event.  Returns False when the queue is empty."""
        return self.run(max_events=1) == 1

    def stop(self) -> None:
        """Halt the simulation permanently; pending events are discarded."""
        self._stopped = True
        for entry in self._queue:
            handle = entry[6]
            if handle is not None:
                handle.owner = None  # discarded: late cancel() must not count
        self._queue.clear()
        self._cancelled_count = 0

    @property
    def stopped(self) -> bool:
        return self._stopped

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.

        O(1): the scheduler tracks the exact count of dead entries instead
        of scanning the heap.
        """
        return len(self._queue) - self._cancelled_count

    def peek(self) -> Optional[float]:
        """Time of the next live event, or None if the queue is empty."""
        queue = self._queue
        while queue:
            handle = queue[0][6]
            if handle is None or not handle.cancelled:
                break
            heapq.heappop(queue)
            self._cancelled_count -= 1
        return queue[0][0] if queue else None

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel` for every event dying in-queue.

        Keeps ``pending()`` O(1) and compacts the heap once dead entries
        outnumber live ones, so workloads that cancel in bulk (periodic
        tasks, retry timers) never degrade ``run()``/``peek()`` to
        O(dead events).
        """
        self._cancelled_count += 1
        if (self._cancelled_count > COMPACT_MIN_QUEUE
                and self._cancelled_count * 2 > len(self._queue)):
            self._compact()
        self._update_cancel_gauge()

    @property
    def cancelled_ratio(self) -> float:
        """Dead entries as a fraction of everything still stored.  The
        same number is exposed live as the ``kernel.cancelled_ratio``
        gauge once the metrics registry exists."""
        total = len(self._queue)
        return self._cancelled_count / total if total else 0.0

    def _update_cancel_gauge(self) -> None:
        gauge = self._cancel_gauge
        if gauge is not None:
            gauge.set(self.cancelled_ratio)

    def _compact(self) -> None:
        """Rebuild the heap without its cancelled entries.

        Mutates the queue *in place*: ``run()`` holds a local reference to
        the list, so rebinding ``self._queue`` here would silently detach a
        running event loop from every event scheduled afterwards.
        """
        queue = self._queue
        # Fast-path entries (handle None) are uncancellable, so dead
        # entries always carry a handle.
        queue[:] = [entry for entry in queue
                    if entry[6] is None or not entry[6].cancelled]
        heapq.heapify(queue)
        self._cancelled_count = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # Randomness and tracing
    # ------------------------------------------------------------------
    def rng(self, name: str):
        """The named random stream (see :class:`RandomStreams`)."""
        return self.streams.stream(name)

    def trace(self, category: str, source: str, message: str, **data: Any) -> None:
        """Emit a structured trace record at the current time."""
        tracer = self.tracer
        if tracer.enabled:
            tracer.append(self._now, category, source, message, data)

    def issue(self, topic: str, source: str, message: str, **data: Any) -> None:
        """Emit an *issue* — a concern the LPC classifier will place in a
        layer.  Issues are recorded even when ordinary tracing is disabled,
        because experiment E9 depends on them; tracing stays disabled for
        the subscribers they reach."""
        self.tracer.append(self._now, f"issue.{topic}", source, message, data)

    # ------------------------------------------------------------------
    # Causal spans
    # ------------------------------------------------------------------
    def span_begin(self, category: str, source: str, *,
                   parent: Optional[Span] = None, activate: bool = True,
                   **data: Any) -> Any:
        """Open a causal span at the current time and return it.

        The parent defaults to the *ambient* span — the one active in the
        current event, which the scheduler carried over from whichever
        event scheduled this one.  With ``activate`` (the default) the new
        span becomes ambient, so events scheduled before the matching
        :meth:`span_end` become its children.  With tracing disabled this
        returns the shared :data:`repro.kernel.trace.NULL_SPAN` and costs
        one predicate test.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return NULL_SPAN
        parent_id = self._span_ctx if parent is None else parent.span_id
        span = tracer.begin_span(self._now, category, source, parent_id, data)
        if activate:
            self._span_ctx = span.span_id
        return span

    def span_end(self, span: Any, status: str = "ok") -> None:
        """Close ``span`` at the current time.

        If the span is still the ambient one, ambience reverts to its
        parent.  Ending :data:`NULL_SPAN` (or any span from a disabled
        tracer) is a no-op, so callers never need their own enabled check.
        """
        if span.span_id is None:
            return
        self.tracer.end_span(span, self._now, status)
        if self._span_ctx == span.span_id:
            self._span_ctx = span.parent_id

    def span(self, category: str, source: str, **data: Any) -> "_SpanScope":
        """Context manager: ``with sim.span("session.acquire", name): ...``.

        Begins the span on entry, ends it on exit — with status ``"error"``
        if the block raised — and restores whatever span was ambient before,
        even if the block shifted ambience itself.
        """
        return _SpanScope(self, category, source, data)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> Any:
        """The per-simulator :class:`repro.metrics.registry.MetricsRegistry`.

        Created on first access (lazily — the metrics package imports this
        module, so importing it eagerly here would be circular).
        """
        registry = self._metrics
        if registry is None:
            from ..metrics.registry import MetricsRegistry
            registry = self._metrics = MetricsRegistry(self)
            self._cancel_gauge = registry.gauge("kernel.cancelled_ratio")
            registry.register_probe("kernel", self._kernel_probe)
        return registry

    def next_seq(self, name: str) -> int:
        """Monotonic per-simulator sequence counter, starting at 1.

        The sanctioned home for id/sequence counters that used to live
        as module-level ``itertools.count`` globals (the
        ``services.sessions._session_seq`` bug class, now LPC301): a
        module counter is shared by every simulator in the process and
        keeps ticking across runs, so run N+1 mints different ids than
        run N and forked shards diverge from the inline oracle.  Scoping
        the counter to the simulator keeps twin runs byte-identical.
        """
        value = self.context.get(name, 0) + 1
        self.context[name] = value
        return value

    def _kernel_probe(self) -> Dict[str, Any]:
        """Engine self-observability for metric snapshots.  Reflects the
        *internal* event store rather than what the simulation did, so the
        golden-digest tests exclude it — see docs/performance.md."""
        return {
            "cancelled_ratio": self.cancelled_ratio,
            "compactions": self.compactions,
            # Always empty: kept because bench/layers.sim_counters reads
            # it, and bench/ changes only together with its benchmark.
            "batch": {},
        }


class _SpanScope:
    """Context manager returned by :meth:`Simulator.span`."""

    __slots__ = ("sim", "category", "source", "data", "span", "_saved")

    def __init__(self, sim: Simulator, category: str, source: str,
                 data: Dict[str, Any]) -> None:
        self.sim = sim
        self.category = category
        self.source = source
        self.data = data
        self.span: Any = NULL_SPAN

    def __enter__(self) -> Any:
        self._saved = self.sim._span_ctx
        self.span = self.sim.span_begin(self.category, self.source,
                                        **self.data)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.sim.span_end(self.span, "error" if exc_type else "ok")
        self.sim._span_ctx = self._saved
        return False


class PeriodicTask:
    """Handle for a repeating callback created by :meth:`Simulator.every`."""

    def __init__(self, sim: Simulator, interval: float,
                 fn: Callable[..., Any], args: tuple, priority: int) -> None:
        self.sim = sim
        self.interval = interval
        self.fn = fn
        self.args = args
        self.priority = priority
        self.fires = 0
        self.cancelled = False
        self._event: Optional[Event] = None

    def _arm(self, time: float) -> None:
        self._event = self.sim.schedule_at(time, self._fire, priority=self.priority)

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.fires += 1
        self.fn(*self.args)
        if not self.cancelled and not self.sim.stopped:
            self._arm(self.sim.now + self.interval)

    def cancel(self) -> None:
        self.cancelled = True
        if self._event is not None:
            self._event.cancel()
            self._event = None
