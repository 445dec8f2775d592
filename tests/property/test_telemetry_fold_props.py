"""Property test for the one telemetry fold, live against its oracle.

Random programs of ``trace`` calls, issues and spans run twice: once on
a ``store`` tracer that keeps everything and is folded after the run by
the oracle, :class:`tests.fold_oracle.ReplayedAggregator`, once on a
``stream`` tracer that stores nothing and is folded as it happens by
:meth:`StreamingAggregator.attach`.  Both folds must give the same
summary (byte for byte, key order included), the same layer report in
both forms, and the same span histograms.

Programs mix plain records, look-alike categories, issues emitted by
``trace`` as well as ``issue``, known topics from user and device
sources, a topic placed only by its message's keywords, an unplaceable
one, and spans begun under whatever span is ambient and ended in any
order — some never.  The clock advances by arbitrary amounts between
steps, so span durations are arbitrary floats.
"""

from __future__ import annotations

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st
from tests.fold_oracle import ReplayedAggregator

from repro.kernel.scheduler import Simulator
from repro.telemetry.report import layer_report, layer_report_data
from repro.telemetry.streaming import StreamingAggregator

USERS = ("alice", "bob")
SOURCES = USERS + ("adapter", "projector")

#: (topic, message): five layers by topic, one by keyword only, and one
#: that nothing places.
ISSUES = (("radio", "fade"), ("power", "brown-out"), ("storage", "disk full"),
          ("session", "renewal stalled"), ("goal", "expectation unmet"),
          ("mystery", "battery ran low"), ("???", "unplaceable"))

#: Plain categories, look-alikes of the issue namespace, and issue
#: categories reached through ``Simulator.trace``.
CATEGORIES = ("mac.tx", "mac.rx", "issues.radio", "issue", "issue.vnc",
              "issue.???")
SPAN_CATEGORIES = ("transport.send", "mac.tx", "session.hold")

program = st.lists(
    st.one_of(
        st.tuples(st.just("trace"), st.sampled_from(CATEGORIES),
                  st.sampled_from(SOURCES)),
        st.tuples(st.just("issue"), st.sampled_from(ISSUES),
                  st.sampled_from(SOURCES)),
        st.tuples(st.just("begin"), st.sampled_from(SPAN_CATEGORIES),
                  st.sampled_from(SOURCES)),
        st.tuples(st.just("end"), st.integers(min_value=0, max_value=9),
                  st.sampled_from(("ok", "error"))),
        st.tuples(st.just("advance"),
                  st.floats(min_value=0.0, max_value=3.0,
                            allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("count"), st.sampled_from(("mac.frames",
                                                     "session.grants"))),
    ),
    max_size=60)


def _execute(sim, steps):
    """Apply ``steps`` to ``sim``, leaving unended spans open."""
    open_spans = []
    for step in steps:
        kind = step[0]
        if kind == "trace":
            sim.trace(step[1], step[2], "issue-like text", n=len(open_spans))
        elif kind == "issue":
            (topic, message), source = step[1], step[2]
            sim.issue(topic, source, message)
        elif kind == "begin":
            open_spans.append(sim.span_begin(step[1], step[2]))
        elif kind == "end":
            if open_spans:
                sim.span_end(open_spans.pop(step[1] % len(open_spans)),
                             step[2])
        elif kind == "advance":
            sim.run(until=sim.now + step[1])
        else:
            sim.metrics.counter(step[1]).add()


def _folds(steps):
    stored = Simulator(seed=5)
    _execute(stored, steps)
    replayed = ReplayedAggregator(user_sources=USERS).replay(stored)
    streamed = Simulator(seed=5, trace_mode="stream")
    live = StreamingAggregator(user_sources=USERS).attach(streamed)
    _execute(streamed, steps)
    assert len(streamed.tracer) == streamed.tracer.span_count == 0
    return replayed, live


@settings(max_examples=150, deadline=None)
@given(program)
# Three spans of one category ending out of begin order: summed
# naively, in fold order, the durations gave 14.778999999999998 replayed
# against 14.779 live.
@example([("begin", "mac.tx", "adapter"), ("advance", 1.486),
          ("begin", "mac.tx", "adapter"), ("advance", 1.348),
          ("begin", "mac.tx", "adapter"), ("advance", 1.955),
          ("end", 2, "ok"), ("advance", 2.366), ("end", 0, "ok"),
          ("end", 0, "ok")])
def test_replayed_and_live_folds_agree(steps):
    replayed, live = _folds(steps)
    assert (json.dumps(layer_report_data(replayed))
            == json.dumps(layer_report_data(live)))
    assert layer_report(replayed) == layer_report(live)
    assert replayed.span_histograms() == live.span_histograms()
    # Last: summary() closes the metrics registry.
    assert json.dumps(replayed.summary()) == json.dumps(live.summary())
