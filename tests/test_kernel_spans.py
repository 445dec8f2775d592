"""Tests for causal spans and span-context propagation."""

from __future__ import annotations

import pytest

from repro.kernel.errors import ConfigurationError
from repro.kernel.process import spawn
from repro.kernel.scheduler import Simulator
from repro.kernel.trace import (
    NULL_SPAN,
    Tracer,
    add_default_span_hook,
    add_default_subscriber,
)


# ---------------------------------------------------------------------------
# Span API basics
# ---------------------------------------------------------------------------

def test_span_begin_end_records_interval(sim):
    span = sim.span_begin("work", "tester", item=7)
    sim._now = 2.5
    sim.span_end(span)
    assert span.start == 0.0
    assert span.end == 2.5
    assert span.duration == 2.5
    assert span.status == "ok"
    assert span.data == {"item": 7}
    assert sim.tracer.spans == [span]


def test_ending_a_copy_updates_its_row(sim):
    """A copy read back from ``tracer.spans`` ends its stored row, as the
    handle would; the handle itself stays open."""
    handle = sim.span_begin("work", "tester", item=7)
    (copy,) = sim.tracer.spans
    sim._now = 1.5
    sim.span_end(copy, "error")
    (row,) = sim.tracer.spans
    assert (row.end, row.status) == (1.5, "error")
    assert sim.tracer.open_span_count == 0
    assert (handle.end, handle.status) == (None, "open")


def test_span_parenting_follows_ambient_context(sim):
    outer = sim.span_begin("outer", "tester")
    inner = sim.span_begin("inner", "tester")
    assert inner.parent_id == outer.span_id
    sim.span_end(inner)
    # Ambience reverted to the parent, so a sibling parents under outer.
    sibling = sim.span_begin("sibling", "tester")
    assert sibling.parent_id == outer.span_id


def test_span_context_manager_sets_error_status(sim):
    with pytest.raises(RuntimeError):
        with sim.span("doomed", "tester"):
            raise RuntimeError("boom")
    (span,) = sim.tracer.spans
    assert span.status == "error"
    assert span.end is not None
    assert sim._span_ctx is None


def test_disabled_tracer_returns_null_span():
    sim = Simulator(seed=1, trace=False)
    span = sim.span_begin("work", "tester")
    assert span is NULL_SPAN
    sim.span_end(span)  # must be a no-op, not an error
    with sim.span("work", "tester") as scoped:
        assert scoped is NULL_SPAN
    assert sim.tracer.spans == []


def test_null_span_matches_nothing(sim):
    assert not NULL_SPAN.matches("work")
    assert not NULL_SPAN.matches("")


# ---------------------------------------------------------------------------
# Propagation across scheduled events
# ---------------------------------------------------------------------------

def test_span_context_crosses_schedule(sim):
    parents = []

    def child() -> None:
        parents.append(sim.span_begin("child", "tester"))

    root = sim.span_begin("root", "tester")
    sim.schedule(1.0, child)
    sim.span_end(root)
    sim.run()
    assert parents[0].parent_id == root.span_id


def test_span_context_crosses_schedule_bound(sim):
    parents = []

    def child() -> None:
        parents.append(sim.span_begin("child", "tester"))

    root = sim.span_begin("root", "tester")
    sim.schedule_bound(1.0, child)
    sim.span_end(root)
    sim.run()
    assert parents[0].parent_id == root.span_id


def test_recycled_events_do_not_leak_stale_context(sim):
    """A bound event scheduled outside any span must carry no parent.

    (Historically this guarded the event free list against recycled
    ``ctx`` fields; tuples made the pool obsolete, but a stale ambient
    ``_span_ctx`` leaking across run() rounds would reproduce the same
    bug, so the scenario stays pinned.)
    """
    parents = []

    def traced() -> None:
        pass

    def untraced() -> None:
        parents.append(sim.span_begin("orphan", "tester"))

    root = sim.span_begin("root", "tester")
    sim.schedule_bound(1.0, traced)  # entry captures the root ctx
    sim.span_end(root)
    sim.run()
    # Second round: no ambient span — the new entry must carry None.
    sim.schedule_bound(1.0, untraced)
    sim.run()
    assert parents[0].parent_id is None


def test_multi_hop_chain_reconstructable(sim):
    """root -> hop1 -> hop2 across three events forms one ancestry chain."""
    spans = {}

    def hop(name: str, then=None) -> None:
        span = sim.span_begin(name, "tester")
        spans[name] = span
        if then is not None:
            sim.schedule(1.0, then)
        sim.span_end(span)

    hop("root", then=lambda: hop("hop1", then=lambda: hop("hop2")))
    sim.run()
    stored = sim.tracer.spans
    by_id = {s.span_id: s for s in stored}
    chain = [spans["hop2"]]
    while chain[-1].parent_id is not None:
        chain.append(by_id[chain[-1].parent_id])
    assert [s.category for s in chain] == ["hop2", "hop1", "root"]
    assert [s.category for s in stored if s.parent_id is None] == ["root"]
    assert [s.category for s in stored
            if s.parent_id == spans["root"].span_id] == ["hop1"]


def test_process_spans_cover_resumptions(sim):
    """A process keeps its own span across yields; children parent under it."""
    child_spans = []

    def body():
        yield 1.0
        child_spans.append(sim.span_begin("step", "proc"))
        yield 1.0

    proc = spawn(sim, body(), "worker")
    sim.run()
    assert proc.span.status == "ok"
    assert proc.span.end == 2.0
    assert child_spans[0].parent_id == proc.span.span_id


# ---------------------------------------------------------------------------
# Tracer modes: store and stream
# ---------------------------------------------------------------------------

def test_unknown_trace_mode_rejected():
    """Only ``store`` and ``stream`` exist; the retired bounded-buffer
    policies are unknown modes too."""
    for mode in ("sideways", "head", "ring"):
        with pytest.raises(ConfigurationError):
            Tracer(mode=mode)
        with pytest.raises(ConfigurationError):
            Simulator(trace_mode=mode)


def test_subscribers_see_dropped_records():
    """Streaming consumers still observe records stream mode drops."""
    sim = Simulator(seed=1, trace_mode="stream")
    seen = []
    sim.tracer.subscribe("tick", lambda r: seen.append(r.message))
    for i in range(3):
        sim.trace("tick", "tester", str(i))
    assert seen == ["0", "1", "2"]
    assert sim.tracer.records == []


# ---------------------------------------------------------------------------
# Process-default hooks (the CLI's --trace plumbing)
# ---------------------------------------------------------------------------

def test_default_subscriber_reaches_future_tracers():
    seen = []
    remove = add_default_subscriber("tick", lambda r: seen.append(r.message))
    try:
        sim = Simulator(seed=1)
        sim.trace("tick", "tester", "hello")
        sim.trace("other", "tester", "filtered out")
    finally:
        remove()
    assert seen == ["hello"]
    # After removal, new tracers are clean again.
    sim2 = Simulator(seed=1)
    sim2.trace("tick", "tester", "late")
    assert seen == ["hello"]


def test_default_span_hook_fires_on_span_end():
    ended = []
    remove = add_default_span_hook(lambda s: ended.append(s.category))
    try:
        sim = Simulator(seed=1)
        with sim.span("work", "tester"):
            pass
    finally:
        remove()
    assert ended == ["work"]
