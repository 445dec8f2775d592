"""Structured trace log and causal spans for simulations.

Components emit :class:`TraceRecord` entries through
:meth:`repro.kernel.scheduler.Simulator.trace`.  The trace is the raw
material for three consumers:

* metrics extraction in :mod:`repro.metrics` and the experiment harness;
* the LPC instrumentation bridge (:mod:`repro.core.instrument`) which
  classifies emitted *issues* into conceptual-model layers;
* the telemetry pipeline (:mod:`repro.telemetry`) which exports records,
  spans and metric snapshots as JSONL and renders per-layer run reports.

Alongside the flat record log the tracer stores :class:`Span` entries —
timed intervals with a ``parent_id`` forming a *causal tree*.  The
scheduler propagates the current span through every scheduled event (see
:meth:`repro.kernel.scheduler.Simulator.span_begin`), so a frame's journey
``transport.send -> mac.tx -> transport.deliver -> session.acquire`` is
reconstructable after the run even though it crossed many events.

Tracing is cheap when disabled (a single predicate test per record) and
cheap to leave on: the tracer keeps records and spans as parallel column
lists of floats, strings and tuples, which the garbage collector does
not walk, and builds :class:`TraceRecord`/:class:`Span` objects only for
a subscriber whose prefix covers the record's category or for a reader
of :attr:`Tracer.records`/:attr:`Tracer.spans`.  Record and span
payloads alike are kept as a shared key tuple and a tuple of values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .errors import ConfigurationError

#: Tracer modes.  ``store`` (the default) keeps every record and span;
#: ``stream`` stores nothing at all: every record and span is dispatched
#: to subscribers/hooks and then discarded, giving O(1) memory for
#: million-event runs consumed by
#: :class:`repro.telemetry.streaming.StreamingAggregator` or a live
#: exporter.
TRACER_MODES: Tuple[str, ...] = ("store", "stream")


def _under(category: str, prefix: str) -> bool:
    """True if ``category`` equals ``prefix`` or sits under it; the empty
    prefix is the root and matches everything."""
    return (not prefix or category == prefix
            or category.startswith(prefix + "."))


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One trace entry.

    Attributes:
        time: simulation time of the emission.
        category: dotted category string, e.g. ``"mac.tx"`` or
            ``"issue.session"``.  Categories beginning with ``issue.`` feed
            the LPC issue classifier.
        source: name of the emitting component.
        message: human-readable one-liner.
        data: structured payload (numbers, ids) for programmatic consumers.
    """

    time: float
    category: str
    source: str
    message: str
    data: Dict[str, Any] = field(default_factory=dict)

    def matches(self, prefix: str) -> bool:
        """True if the record's category equals ``prefix`` or sits under it.

        The empty prefix is the root: it matches everything.
        """
        return _under(self.category, prefix)


@dataclass(slots=True)
class Span:
    """One timed interval in the causal tree.

    A span is *open* between :meth:`Simulator.span_begin` and
    :meth:`Simulator.span_end`; ``parent_id`` points at the span that was
    current when it began (possibly in an earlier event — the scheduler
    carries span context across ``schedule``/``schedule_bound``).

    The span ``span_begin`` returns is the caller's handle: ending it
    updates the handle and the tracer's stored row.  :attr:`Tracer.spans`
    returns fresh copies of the rows, equal to the handles field for
    field but not the same objects; ending a copy updates its row too.
    """

    span_id: int
    parent_id: Optional[int]
    category: str
    source: str
    start: float
    end: Optional[float] = None
    status: str = "open"  #: "open" until ended, then "ok"/"error"/custom.
    data: Dict[str, Any] = field(default_factory=dict)
    #: The tracer holding this span's row, set on the handle and on
    #: copies read back; None for a span no store holds.
    _tracer: Optional["Tracer"] = field(default=None, init=False,
                                        repr=False, compare=False)

    @property
    def duration(self) -> Optional[float]:
        """Span length in simulated seconds; None while still open."""
        return None if self.end is None else self.end - self.start

    def matches(self, prefix: str) -> bool:
        """True if the span's category equals ``prefix`` or sits under it
        (empty prefix matches everything)."""
        return _under(self.category, prefix)


class _NullSpan:
    """The span returned when tracing is disabled: inert and shared."""

    __slots__ = ()
    span_id: Optional[int] = None
    parent_id: Optional[int] = None
    category = ""
    source = ""
    status = "disabled"

    def matches(self, prefix: str) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullSpan>"


#: Singleton no-op span handed out by a disabled tracer.
NULL_SPAN = _NullSpan()


# ---------------------------------------------------------------------------
# Process-default hooks: installed into every Tracer constructed afterwards.
# The CLI uses these to stream records/spans to a telemetry file from runs
# whose simulators are built deep inside an experiment.
# ---------------------------------------------------------------------------

_DEFAULT_SUBSCRIBERS: List[Tuple[str, Callable[[TraceRecord], None]]] = []
_DEFAULT_SPAN_HOOKS: List[Callable[[Span], None]] = []


def add_default_subscriber(prefix: str,
                           callback: Callable[[TraceRecord], None],
                           ) -> Callable[[], None]:
    """Subscribe ``callback`` to ``prefix`` on every *future* Tracer.

    Returns a remover.  Existing tracers are unaffected.
    """
    entry = (prefix, callback)
    _DEFAULT_SUBSCRIBERS.append(entry)

    def remove() -> None:
        try:
            _DEFAULT_SUBSCRIBERS.remove(entry)
        except ValueError:
            pass

    return remove


def add_default_span_hook(callback: Callable[[Span], None],
                          ) -> Callable[[], None]:
    """Call ``callback(span)`` on span end in every *future* Tracer."""
    _DEFAULT_SPAN_HOOKS.append(callback)

    def remove() -> None:
        try:
            _DEFAULT_SPAN_HOOKS.remove(callback)
        except ValueError:
            pass

    return remove


def default_hooks_installed() -> bool:
    """True while a process-default subscriber or span hook is installed,
    so a Tracer built now would feed someone."""
    return bool(_DEFAULT_SUBSCRIBERS or _DEFAULT_SPAN_HOOKS)


class Tracer:
    """Collects trace records and spans; dispatches to live subscribers.

    Storage is columnar, so a run that keeps its trace adds no objects
    for the garbage collector to walk.  Records and spans keep one list
    per field, with the payload split in two: a key tuple, shared by
    every row with the same key sequence (``()`` for no payload), and a
    tuple of the values.  A span's id is not stored: it is the row index
    plus a base.  :attr:`records`, :attr:`spans`, :meth:`select`,
    :meth:`issues` and :meth:`open_spans` build the objects when read —
    read them once, not inside a loop.  An object read back carries a
    fresh payload dict in the stored key order; changing it, or the dict
    given to :meth:`append` or :meth:`begin_span`, changes nothing
    stored.  ``len(tracer)``, :attr:`span_count` and
    :attr:`open_span_count` count what is stored; :attr:`records_appended`
    and :attr:`spans_begun` count everything since the tracer was built,
    in either mode and across :meth:`clear`.  All five are O(1).  Each
    category's subscribers are resolved once and cached until the next
    subscribe or unsubscribe; a record object is built only for a
    category someone subscribed to.

    Args:
        enabled: record anything at all.
        mode: ``"store"`` (the default) keeps every record and span;
            ``"stream"`` retains nothing and only dispatches to
            subscribers and span hooks.
    """

    def __init__(self, enabled: bool = True, mode: str = "store") -> None:
        if mode not in TRACER_MODES:
            raise ConfigurationError(
                f"unknown tracer mode {mode!r}; choose from {TRACER_MODES}")
        self.enabled = enabled
        self.mode = mode
        self._retain = mode != "stream"
        # Record columns in TraceRecord field order, the payload as key
        # and value tuples.
        self._record_columns: Tuple[List[Any], ...] = tuple(
            [] for _ in range(6))
        (self._times, self._categories, self._sources, self._messages,
         self._keys, self._values) = self._record_columns
        #: key tuple -> itself: one stored tuple per distinct key sequence.
        self._key_tuples: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        # Span columns in Span field order after the id, the payload as
        # key and value tuples: row r holds span id _span_base + r,
        # because ids are consecutive and clear() rebases.
        self._span_columns: Tuple[List[Any], ...] = tuple(
            [] for _ in range(8))
        (self._span_parents, self._span_categories, self._span_sources,
         self._span_starts, self._span_ends, self._span_statuses,
         self._span_keys, self._span_values) = self._span_columns
        self._span_base = 1
        self._next_span_id = 1
        self._open = 0
        self._appended = 0
        self._subscribers: List[tuple] = list(_DEFAULT_SUBSCRIBERS)
        #: category -> the callbacks whose prefix covers it.
        self._routes: Dict[str, Tuple[Callable[[TraceRecord], None], ...]] = {}
        self._span_hooks: List[Callable[[Span], None]] = \
            list(_DEFAULT_SPAN_HOOKS)

    def _put_payload(self, keys: List[Tuple[str, ...]], values: List[tuple],
                     data: Dict[str, Any]) -> None:
        """Append ``data`` to a key column and a value column."""
        if data:
            key = tuple(data)
            keys.append(self._key_tuples.setdefault(key, key))
            values.append(tuple(data.values()))
        else:
            keys.append(())
            values.append(())

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    def append(self, time: float, category: str, source: str, message: str,
               data: Dict[str, Any]) -> None:
        """Store a record and notify matching subscribers, who get
        ``data`` itself.

        This does not test :attr:`enabled`: ``Simulator.trace`` tests it
        first, and ``Simulator.issue`` records issues regardless, without
        turning tracing on for the subscribers they reach.
        """
        self._appended += 1
        if self._retain:
            self._times.append(time)
            self._categories.append(category)
            self._sources.append(source)
            self._messages.append(message)
            self._put_payload(self._keys, self._values, data)
        route = self._route(category)
        if route:
            record = TraceRecord(time, category, source, message, data)
            for callback in route:
                callback(record)

    def _route(self, category: str) -> Tuple[Callable[[TraceRecord], None], ...]:
        """The callbacks subscribed to ``category``, resolved once."""
        route = self._routes.get(category)
        if route is None:
            route = self._routes[category] = tuple(
                callback for prefix, callback in self._subscribers
                if _under(category, prefix))
        return route

    def subscribe(self, prefix: str, callback: Callable[[TraceRecord], None]) -> Callable[[], None]:
        """Call ``callback`` for every future record under ``prefix``.

        Returns an unsubscribe function.  A change made while records are
        being dispatched applies from the next record on.
        """
        entry = (prefix, callback)
        self._subscribers.append(entry)
        self._routes.clear()

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(entry)
            except ValueError:
                pass
            self._routes.clear()

        return unsubscribe

    @property
    def records(self) -> List[TraceRecord]:
        """The stored records, oldest first, built afresh on every read."""
        return list(map(TraceRecord, self._times, self._categories,
                        self._sources, self._messages,
                        _payloads(self._keys, self._values)))

    def select(self, prefix: str) -> List[TraceRecord]:
        """All stored records whose category sits under ``prefix``."""
        hit = _matching(self._categories, prefix)
        return [TraceRecord(time, category, source, message,
                            dict(zip(keys, values)))
                for time, category, source, message, keys, values
                in zip(*self._record_columns) if hit[category]]

    def issues(self) -> List[TraceRecord]:
        """All records in the ``issue.*`` namespace (LPC classifier input)."""
        return self.select("issue")

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def begin_span(self, time: float, category: str, source: str,
                   parent_id: Optional[int], data: Dict[str, Any]) -> Span:
        """Open a new span starting at ``time`` under ``parent_id``.

        The returned handle carries ``data`` itself; the store keeps its
        keys and values.  In ``stream`` mode the span is not retained;
        causal links still work because the caller holds the span object
        until :meth:`end_span`.
        """
        span_id = self._next_span_id
        self._next_span_id = span_id + 1
        span = Span(span_id, parent_id, category, source, time, data=data)
        if self._retain:
            span._tracer = self
            self._span_parents.append(parent_id)
            self._span_categories.append(category)
            self._span_sources.append(source)
            self._span_starts.append(time)
            self._span_ends.append(None)
            self._span_statuses.append("open")
            self._put_payload(self._span_keys, self._span_values, data)
            self._open += 1
        return span

    def end_span(self, span: Span, time: float, status: str = "ok") -> None:
        """Close ``span`` at ``time`` and notify span hooks.

        The stored row is updated too when ``span`` is the handle
        :meth:`begin_span` returned for it or a copy read back from this
        tracer: a span from stream mode, from before :meth:`clear`, from
        another tracer or built by hand only updates itself.
        """
        span.end = time
        span.status = status
        row = span.span_id - self._span_base
        if span._tracer is self and row >= 0:
            if self._span_ends[row] is None:
                self._open -= 1
            self._span_ends[row] = time
            self._span_statuses[row] = status
        for hook in self._span_hooks:
            hook(span)

    def add_span_hook(self, callback: Callable[[Span], None]) -> Callable[[], None]:
        """Call ``callback(span)`` whenever a span ends; returns a remover."""
        self._span_hooks.append(callback)

        def remove() -> None:
            try:
                self._span_hooks.remove(callback)
            except ValueError:
                pass

        return remove

    @property
    def spans(self) -> List[Span]:
        """The stored spans in begin order, built afresh on every read."""
        base = self._span_base
        spans = list(map(Span, range(base, base + self.span_count),
                         self._span_parents, self._span_categories,
                         self._span_sources, self._span_starts,
                         self._span_ends, self._span_statuses,
                         _payloads(self._span_keys, self._span_values)))
        for span in spans:
            span._tracer = self
        return spans

    @property
    def span_count(self) -> int:
        """Number of stored spans."""
        return len(self._span_parents)

    @property
    def records_appended(self) -> int:
        """Records appended since the tracer was built, stored or not."""
        return self._appended

    @property
    def spans_begun(self) -> int:
        """Spans begun since the tracer was built, stored or not."""
        return self._next_span_id - 1

    @property
    def open_span_count(self) -> int:
        """Number of stored spans not yet ended."""
        return self._open

    def select_spans(self, prefix: str) -> List[Span]:
        """All spans whose category sits under ``prefix``."""
        return [span for span in self.spans if span.matches(prefix)]

    def open_spans(self) -> List[Span]:
        """Spans begun but never ended (useful for leak hunting)."""
        return [span for span in self.spans if span.end is None]

    # ------------------------------------------------------------------
    def clear(self) -> None:
        for column in self._record_columns + self._span_columns:
            column.clear()
        self._key_tuples.clear()
        self._open = 0
        self._span_base = self._next_span_id

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)


def _payloads(keys: Iterable[Tuple[str, ...]],
              values: Iterable[tuple]) -> Iterator[Dict[str, Any]]:
    """Fresh payload dicts from a key column and a value column."""
    return map(dict, map(zip, keys, values))


def _matching(categories: Iterable[str], prefix: str) -> Dict[str, bool]:
    """Whether each distinct category in ``categories`` sits under
    ``prefix``."""
    return {category: _under(category, prefix)
            for category in dict.fromkeys(categories)}

