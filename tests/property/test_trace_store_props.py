"""Property test for the tracer's columnar store.

Random programs — records traced through ``Simulator.trace`` and raised
through ``Simulator.issue``; subscribers added and removed at any point;
spans begun and ended in any order, twice, after ``clear()`` or from no
tracer at all; ``clear()`` itself — run on a simulator's tracer and on a
reference model that keeps records and spans as stored objects and tests
every subscriber prefix on every record.  After every step the stored
records and spans, their counts, every query, the callers' span handles
and the exact sequence of subscriber and hook calls must match the
model, in both tracer modes, with tracing on and off.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kernel.scheduler import Simulator
from repro.kernel.trace import NULL_SPAN, TRACER_MODES, Span, TraceRecord

#: Nested and look-alike categories: ``macx.tx`` must not sit under
#: ``mac``, and the empty category sits only under the root.
CATEGORIES = ("", "mac", "mac.tx", "mac.tx.retry", "macx.tx",
              "issue.session", "stack.unbound")
PREFIXES = ("", "mac", "mac.tx", "macx", "ma", "issue", "issue.session")
TOPICS = ("session", "vnc")
STATUSES = ("ok", "error")

#: (mode, enabled).
CONFIGS = [(mode, enabled) for mode in TRACER_MODES
           for enabled in (True, False)]

times = st.sampled_from((0.0, 0.5, 1.0, 2.5, 7.0))
index = st.integers(min_value=0, max_value=20)
program = st.lists(
    st.one_of(
        st.tuples(st.just("trace"), st.sampled_from(CATEGORIES), times),
        st.tuples(st.just("issue"), st.sampled_from(TOPICS), times),
        st.tuples(st.just("subscribe"), st.sampled_from(PREFIXES),
                  st.integers(min_value=0, max_value=2)),
        st.tuples(st.just("unsubscribe"), index),
        st.tuples(st.just("hook"),),
        st.tuples(st.just("begin"), st.sampled_from(CATEGORIES),
                  st.none() | index, times, st.booleans()),
        st.tuples(st.just("end"), index, st.sampled_from(STATUSES), times,
                  st.booleans()),
        st.tuples(st.just("foreign"), st.integers(min_value=1, max_value=8),
                  times),
        st.tuples(st.just("clear")),
    ),
    max_size=40)


def _ref_under(category, prefix):
    if not prefix:
        return True
    return category == prefix or category.startswith(prefix + ".")


class ListTracer:
    """Reference model: records and spans kept as the objects themselves,
    each record tested against every subscriber prefix."""

    def __init__(self, enabled, mode):
        self.enabled = enabled
        self.mode = mode
        self.records = []
        self.spans = []
        self.subscribers = []
        self.span_hooks = []
        self.next_span_id = 1
        self.appended = 0

    def append(self, record, force=False):
        if not (self.enabled or force):
            return
        self.appended += 1
        if self.mode != "stream":
            self.records.append(record)
        for prefix, callback in self.subscribers:
            if _ref_under(record.category, prefix):
                callback(record)

    def subscribe(self, prefix, callback):
        entry = (prefix, callback)
        self.subscribers.append(entry)

        def unsubscribe():
            if entry in self.subscribers:
                self.subscribers.remove(entry)

        return unsubscribe

    def begin_span(self, time, category, source, parent_id, data):
        span = Span(self.next_span_id, parent_id, category, source, time,
                    data=data)
        self.next_span_id += 1
        if self.mode != "stream":
            self.spans.append(span)
        return span

    def end_span(self, span, time, status):
        span.end = time
        span.status = status
        for hook in self.span_hooks:
            hook(span)

    def clear(self):
        self.records.clear()
        self.spans.clear()


def _record_callback(log, name):
    return lambda r: log.append(("record", name, r.time, r.category,
                                 r.source, r.message, dict(r.data)))


def _span_hook(log, kind):
    return lambda s: log.append((kind, s.span_id, s.parent_id, s.category,
                                 s.source, s.start, s.end, s.status,
                                 dict(s.data)))


def _fields(span):
    if span is NULL_SPAN:
        return None
    return (span.span_id, span.parent_id, span.category, span.source,
            span.start, span.end, span.status, span.data)


def _newest(k, items):
    """Index of the ``k``-th newest item, wrapping: small draws, which
    Hypothesis shrinks towards, pick what the program touched last."""
    return -1 - k % len(items)


def _assert_same(tracer, model, handles, model_handles, log, model_log):
    records = model.records
    open_spans = [s for s in model.spans if s.end is None]
    assert tracer.records == records
    assert list(tracer) == records
    assert len(tracer) == len(records)
    assert tracer.issues() == [r for r in records
                               if _ref_under(r.category, "issue")]
    for prefix in PREFIXES:
        assert tracer.select(prefix) == [
            r for r in records if _ref_under(r.category, prefix)]
        assert tracer.select_spans(prefix) == [
            s for s in model.spans if _ref_under(s.category, prefix)]
    assert tracer.spans == model.spans
    assert tracer.records_appended == model.appended
    assert tracer.spans_begun == model.next_span_id - 1
    assert tracer.span_count == len(model.spans)
    assert tracer.open_spans() == open_spans
    assert tracer.open_span_count == len(open_spans)
    assert [_fields(h) for h in handles] == \
        [_fields(h) for h in model_handles]
    assert log == model_log


def _run(steps, mode, enabled):
    sim = Simulator(seed=0, trace=enabled, trace_mode=mode)
    tracer = sim.tracer
    model = ListTracer(enabled, mode)
    log, model_log = [], []
    callbacks = [_record_callback(log, n) for n in range(3)]
    model_callbacks = [_record_callback(model_log, n) for n in range(3)]
    removers, model_removers = [], []
    handles, model_handles = [], []
    for i, step in enumerate(steps):
        op = step[0]
        source, message, data = "src", f"m{i}", {"n": i}
        if op == "trace":
            _, category, time = step
            sim._now = time
            sim.trace(category, source, message, n=i)
            model.append(TraceRecord(time, category, source, message,
                                     dict(data)))
        elif op == "issue":
            _, topic, time = step
            sim._now = time
            sim.issue(topic, source, message, n=i)
            model.append(TraceRecord(time, f"issue.{topic}", source, message,
                                     dict(data)), force=True)
        elif op == "subscribe":
            _, prefix, name = step
            removers.append(tracer.subscribe(prefix, callbacks[name]))
            model_removers.append(model.subscribe(prefix,
                                                  model_callbacks[name]))
        elif op == "unsubscribe":
            if removers:
                k = _newest(step[1], removers)
                removers[k]()
                model_removers[k]()
        elif op == "hook":
            tracer.add_span_hook(_span_hook(log, "end"))
            model.span_hooks.append(_span_hook(model_log, "end"))
        elif op == "begin":
            _, category, parent, time, direct = step
            if parent is None or not handles:
                parent_span = model_parent = None
            else:
                k = _newest(parent, handles)
                parent_span, model_parent = handles[k], model_handles[k]
            parent_id = None if parent_span is None else parent_span.span_id
            if direct:
                handles.append(tracer.begin_span(
                    time, category, source, parent_id, {"n": i}))
            else:
                sim._now = time
                handles.append(sim.span_begin(
                    category, source, parent=parent_span, activate=False,
                    n=i))
            if direct or enabled:
                model_parent_id = (None if model_parent is None
                                   else model_parent.span_id)
                model_handles.append(model.begin_span(
                    time, category, source, model_parent_id, dict(data)))
            else:
                model_handles.append(NULL_SPAN)
        elif op == "end":
            if not handles:
                continue
            _, k, status, time, direct = step
            k = _newest(k, handles)
            span, model_span = handles[k], model_handles[k]
            if direct and span is not NULL_SPAN:
                tracer.end_span(span, time, status)
            else:
                sim._now = time
                sim.span_end(span, status)
            if model_span is not NULL_SPAN:
                model.end_span(model_span, time, status)
        elif op == "foreign":
            _, span_id, time = step
            tracer.end_span(Span(span_id, None, "mac.tx", "other", 0.0),
                            time)
            model.end_span(Span(span_id, None, "mac.tx", "other", 0.0),
                           time, "ok")
        else:
            tracer.clear()
            model.clear()
        _assert_same(tracer, model, handles, model_handles, log, model_log)
    assert sim._span_ctx is None


@pytest.mark.parametrize("mode,enabled", CONFIGS)
@given(program)
@example([("subscribe", "issue", 0), ("issue", "session", 0.0),
          ("unsubscribe", 0), ("issue", "session", 0.5)])
@example([("begin", "mac", None, 0.0, True), ("clear",),
          ("begin", "mac.tx", None, 0.5, True), ("end", 0, "ok", 1.0, True)])
@settings(max_examples=40, deadline=None)
def test_columnar_store_matches_object_store(mode, enabled, steps):
    _run(steps, mode, enabled)
