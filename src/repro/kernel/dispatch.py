"""The dispatch loop of :class:`repro.kernel.scheduler.Simulator`.

``Simulator.run`` calls :func:`loop_bounded` with an ``until`` horizon
and a ``max_events`` budget, substituting ``math.inf`` for whichever is
absent, so an unbounded run tests both bounds per event against ``inf``.
A second loop without those tests ran a bare timer chain about 12%
faster, but no experiment, CLI path or benchmark workload ran it: each
passes a bound.  See docs/performance.md for the figures.

Tracing is not a loop invariant: the loop restores the span context
captured at schedule time around every callback that has one, or that
finds one left ambient.  With tracing off neither case arises (a
disabled tracer never activates spans, and every direct ``_span_ctx``
writer — transport, ``_SpanScope`` — save/restores within its own
event), so the untraced path costs one extra attribute read per event.

Heap entries are plain 7-tuples ``(time, priority, seq, fn, args, ctx,
handle)`` rather than :class:`~repro.kernel.events.Event` objects:
``heapq`` then compares entries with the C tuple comparator (which never
reaches ``fn`` — ``seq`` is globally unique), and the loop unpacks one
entry in a single ``UNPACK_SEQUENCE`` instead of seven attribute loads.
``handle`` is the :class:`Event` cancellation handle for public
``schedule``/``schedule_at`` entries and ``None`` for the
``schedule_bound`` fast path.

The loop is byte-for-byte equivalent to the reference semantics
pinned by ``tests/test_kernel_dispatch_matrix.py`` and the
``(time, priority, seq)`` model in ``tests/property/test_batchq_props.py``:
identical event orderings, span parentage, cancellation accounting and
clock behaviour.

The ``HOT_LOOP`` registry names the functions that carry the
zero-overhead contract; the static pass (rule ``LPC109`` in
:mod:`repro.checks.determinism`) flags any per-event attribute read
reintroduced inside their loops, except the deliberate short allow-list
in :data:`HOT_LOOP_ALLOWED_ATTRS`.
"""

from __future__ import annotations

from heapq import heappop, heappush

__all__ = ["HOT_LOOP", "HOT_LOOP_ALLOWED_ATTRS", "loop_bounded"]

#: Functions holding the kernel's zero-overhead dispatch contract.
#: LPC109 flags per-event attribute reads inside ``while``/``for``
#: bodies of any function with one of these names.
HOT_LOOP = frozenset({"loop_bounded"})

#: Attribute reads a hot loop legitimately performs per event:
#: ``handle.cancelled`` (lazy-cancellation check), ``sim._stopped``
#: (the ``stop()`` latch) and ``sim._span_ctx`` (ambient span restore).
#: Everything else must be hoisted into a local before the loop.
HOT_LOOP_ALLOWED_ATTRS = frozenset({"cancelled", "_stopped", "_span_ctx"})


def loop_bounded(sim, queue, until, max_events):
    """Run events up to the ``until`` horizon and ``max_events`` budget.

    The caller substitutes ``math.inf`` for whichever bound is absent.  A
    live head beyond the bounds is pushed straight back — content and
    ordering of the heap are unchanged; dead heads are discarded even
    past the horizon.
    """
    pop = heappop
    push = heappush
    executed = 0
    while queue:
        entry = pop(queue)
        t, _p, _s, fn, args, ctx, handle = entry
        if handle is not None and handle.cancelled:
            sim._cancelled_count -= 1
            continue
        if t > until or executed >= max_events:
            push(queue, entry)
            break
        if handle is not None:
            # Fired: a late cancel() is a true no-op.
            handle.owner = None
        sim._now = t
        if ctx is not None or sim._span_ctx is not None:
            # Restore the causal span context captured at schedule time,
            # and clear it after — a span "continues" only in the events
            # it scheduled, never by wall-clock accident.
            sim._span_ctx = ctx
            fn(*args)
            sim._span_ctx = None
        else:
            fn(*args)
        executed += 1
        if sim._stopped:
            break
    return executed
