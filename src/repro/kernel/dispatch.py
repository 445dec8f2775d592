"""Monomorphic dispatch loops for :class:`repro.kernel.scheduler.Simulator`.

``Simulator.run`` used to be one polymorphic loop that re-tested, per
event, conditions that are invariant for the whole call: is tracing on?
is there an ``until`` horizon or ``max_events`` budget?  Each test is
cheap, but at millions of events per second the tests *are* the
workload.  This module holds a small family of loop *variants*, one per
combination of those invariants; ``Simulator.run`` picks the matching
variant once at entry and the selected loop carries nothing it does not
need.

Heap entries are plain 7-tuples ``(time, priority, seq, fn, args, ctx,
handle)`` rather than :class:`~repro.kernel.events.Event` objects:
``heapq`` then compares entries with the C tuple comparator (which never
reaches ``fn`` — ``seq`` is globally unique), and the loops unpack one
entry in a single ``UNPACK_SEQUENCE`` instead of seven attribute loads.
``handle`` is the :class:`Event` cancellation handle for public
``schedule``/``schedule_at`` entries and ``None`` for the
``schedule_bound`` fast path, which is what the old free-list pooling
existed to optimise — tuples made the pool redundant.

Variant selection (see docs/performance.md for the full table):

========  =======================================================
axis      selected when
========  =======================================================
traced    ``tracer.enabled`` or a span context is ambient at
          ``run()`` entry.  The traced loops re-establish the
          captured span context around every callback.  The plain
          loops assume the no-span invariant — ``_span_ctx`` is
          ``None`` at every event boundary — which holds because a
          disabled tracer never activates spans and every direct
          ``_span_ctx`` writer (transport, ``_SpanScope``)
          save/restores within its own event.
bounded   an ``until`` horizon or ``max_events`` budget was given.
          The unbounded loops drain the heap with no limit tests
          at all.
metrics   *no variant*: the kernel does no per-event metrics work
          (gauges/probes are sampled, not event-driven), so the
          metrics axis collapses onto the same loops by design.
          LPC109 keeps it that way.
========  =======================================================

Every loop body is byte-for-byte equivalent to the reference semantics
pinned by ``tests/test_kernel_dispatch_matrix.py``: identical event
orderings, span parentage, cancellation accounting and clock behaviour.

The ``HOT_LOOP`` registry names the functions that carry the
zero-overhead contract; the static pass (rule ``LPC109`` in
:mod:`repro.checks.determinism`) flags any per-event attribute read
reintroduced inside their loops, except the deliberate short allow-list
in :data:`HOT_LOOP_ALLOWED_ATTRS`.
"""

from __future__ import annotations

from heapq import heappop, heappush

__all__ = ["HOT_LOOP", "HOT_LOOP_ALLOWED_ATTRS", "select_loop",
           "loop_plain", "loop_traced", "loop_bounded",
           "loop_traced_bounded"]

#: Functions holding the kernel's zero-overhead dispatch contract.
#: LPC109 flags per-event attribute reads inside ``while``/``for``
#: bodies of any function with one of these names.
HOT_LOOP = frozenset({
    "loop_plain",
    "loop_traced",
    "loop_bounded",
    "loop_traced_bounded",
})

#: Attribute reads a hot loop legitimately performs per event:
#: ``handle.cancelled`` (lazy-cancellation check), ``sim._stopped``
#: (the ``stop()`` latch) and ``sim._span_ctx`` (ambient span restore,
#: traced variants only).  Everything else must be hoisted into a local
#: before the loop.
HOT_LOOP_ALLOWED_ATTRS = frozenset({"cancelled", "_stopped", "_span_ctx"})


def loop_plain(sim, queue):
    """Untraced, unbounded: the fastest path — drain the heap dry."""
    pop = heappop
    executed = 0
    while queue:
        t, _p, _s, fn, args, ctx, handle = pop(queue)
        if handle is not None:
            if handle.cancelled:
                sim._cancelled_count -= 1
                continue
            # Fired: break ref cycles; a late cancel() is a true no-op.
            handle.owner = None
            handle.fn = None
            handle.args = ()
        sim._now = t
        if ctx is None:
            fn(*args)
        else:
            # Rare here (no-span invariant): restore the captured span
            # context for this callback only.
            sim._span_ctx = ctx
            fn(*args)
            sim._span_ctx = None
        executed += 1
        if sim._stopped:
            break
    return executed


def loop_traced(sim, queue):
    """Traced, unbounded: per-event span-context save/restore."""
    pop = heappop
    executed = 0
    while queue:
        t, _p, _s, fn, args, ctx, handle = pop(queue)
        if handle is not None:
            if handle.cancelled:
                sim._cancelled_count -= 1
                continue
            handle.owner = None
            handle.fn = None
            handle.args = ()
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


def loop_bounded(sim, queue, until, max_events):
    """Untraced with an ``until`` horizon and/or ``max_events`` budget.

    The caller substitutes ``math.inf`` for whichever bound is absent, so
    one variant serves both and the tests stay branch-predictable.  A
    live head beyond the bounds is pushed straight back — content and
    ordering of the heap are unchanged; dead heads are discarded even
    past the horizon, exactly like the unbounded loops.
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
            handle.owner = None
            handle.fn = None
            handle.args = ()
        sim._now = t
        if ctx is None:
            fn(*args)
        else:
            sim._span_ctx = ctx
            fn(*args)
            sim._span_ctx = None
        executed += 1
        if sim._stopped:
            break
    return executed


def loop_traced_bounded(sim, queue, until, max_events):
    """Traced with an ``until`` horizon and/or ``max_events`` budget."""
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
            handle.owner = None
            handle.fn = None
            handle.args = ()
        sim._now = t
        if ctx is not None or sim._span_ctx is not None:
            sim._span_ctx = ctx
            fn(*args)
            sim._span_ctx = None
        else:
            fn(*args)
        executed += 1
        if sim._stopped:
            break
    return executed


_LOOPS = {
    (False, False): loop_plain,
    (True, False): loop_traced,
    (False, True): loop_bounded,
    (True, True): loop_traced_bounded,
}


def select_loop(traced: bool, bounded: bool):
    """The monomorphic loop for one ``run()`` call's invariants."""
    return _LOOPS[(traced, bounded)]
