"""Tests for named random streams and the structured tracer."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.kernel.errors import ConfigurationError
from repro.kernel.random import RandomStreams
from repro.kernel.scheduler import Simulator
from repro.kernel.trace import Tracer, TraceRecord


# ---------------------------------------------------------------------------
# RandomStreams
# ---------------------------------------------------------------------------

def test_same_seed_same_stream():
    a = RandomStreams(1).stream("mac")
    b = RandomStreams(1).stream("mac")
    assert a.random() == b.random()


@pytest.mark.parametrize("seed, error", [
    (1.5, TypeError), (True, ConfigurationError), (-1, ConfigurationError)])
def test_a_seed_must_be_a_non_negative_integer(seed, error):
    with pytest.raises(error):
        RandomStreams(seed)


def test_different_names_independent():
    streams = RandomStreams(1)
    a = streams.stream("a").random(100)
    b = streams.stream("b").random(100)
    assert not np.allclose(a, b)


def test_stream_identity_is_cached():
    streams = RandomStreams(1)
    assert streams.stream("x") is streams.stream("x")


def test_creation_order_does_not_matter():
    s1 = RandomStreams(5)
    s1.stream("alpha")
    first = s1.stream("beta").random()

    s2 = RandomStreams(5)
    second = s2.stream("beta").random()  # created without alpha first
    assert first == second


def test_variance_isolation_draw_count():
    """Consuming more numbers from one stream must not shift another."""
    s1 = RandomStreams(9)
    s1.stream("noisy").random(1000)
    value_after_heavy_use = s1.stream("probe").random()

    s2 = RandomStreams(9)
    s2.stream("noisy").random(1)
    value_after_light_use = s2.stream("probe").random()
    assert value_after_heavy_use == value_after_light_use


def test_names_listing():
    streams = RandomStreams(0)
    streams.stream("b")
    streams.stream("a")
    assert streams.names() == ["a", "b"]
    assert "a" in streams and "zz" not in streams


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def _append(tracer, time=0.0, category="mac.tx", source="nic", message="m",
            **data):
    tracer.append(time, category, source, message, data)


def test_tracer_stores_records():
    tracer = Tracer()
    _append(tracer)
    assert len(tracer) == 1


def test_tracer_disabled_drops_records():
    sim = Simulator(seed=0, trace=False)
    sim.trace("mac.tx", "nic", "m")
    assert len(sim.tracer) == 0


def test_category_prefix_matching():
    record = TraceRecord(0.0, "mac.tx", "nic", "m")
    assert record.matches("mac")
    assert record.matches("mac.tx")
    assert not record.matches("mac.t")
    assert not record.matches("session")


def test_select_by_prefix():
    tracer = Tracer()
    _append(tracer, category="mac.tx")
    _append(tracer, category="mac.rx")
    _append(tracer, category="session.acquire")
    assert len(tracer.select("mac")) == 2
    assert len(tracer.select("session")) == 1


def test_issues_helper():
    tracer = Tracer()
    _append(tracer, category="issue.session")
    _append(tracer, category="mac.tx")
    assert len(tracer.issues()) == 1


def test_subscription_delivers_matching_records():
    tracer = Tracer()
    got = []
    tracer.subscribe("issue", got.append)
    _append(tracer, category="issue.vnc")
    _append(tracer, category="mac.tx")
    assert len(got) == 1 and got[0].category == "issue.vnc"


def test_unsubscribe_stops_delivery():
    tracer = Tracer()
    got = []
    unsubscribe = tracer.subscribe("mac", got.append)
    _append(tracer, category="mac.tx")
    unsubscribe()
    _append(tracer, category="mac.tx")
    assert len(got) == 1


def test_clear_resets():
    tracer = Tracer()
    _append(tracer)
    tracer.begin_span(0.0, "work", "nic", None, {})
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.records == [] and tracer.spans == []
    assert tracer.span_count == tracer.open_span_count == 0


def test_stored_payload_is_not_shared():
    """The store keeps a record's payload as key and value tuples, so
    neither the dict given to ``append`` nor a dict read back shares it."""
    tracer = Tracer()
    data = {"n": 1}
    tracer.append(0.0, "mac.tx", "nic", "m", data)
    data["n"] = 2
    data["extra"] = 3
    tracer.records[0].data["n"] = 4
    tracer.select("mac")[0].data.clear()
    next(iter(tracer)).data["n"] = 5
    assert [r.data for r in tracer.records] == [{"n": 1}]
    assert tracer.records[0].data is not tracer.records[0].data


def test_stored_span_payload_is_not_shared():
    """A span's payload is stored as key and value tuples too: changing
    the handle's dict, before or after ``span_end``, or a dict read back,
    changes nothing stored."""
    sim = Simulator(seed=0, trace=True)
    handle = sim.span_begin("mac.tx", "nic", bytes=1500, channel=6)
    handle.data["bytes"] = 1
    sim.span_end(handle)
    handle.data["channel"] = 11
    handle.data["extra"] = 3
    sim.tracer.spans[0].data.clear()
    assert [s.data for s in sim.tracer.spans] == [
        {"bytes": 1500, "channel": 6}]
    assert sim.tracer.spans[0].data is not sim.tracer.spans[0].data


def test_payload_key_order_survives_the_store():
    sim = Simulator(seed=0, trace=True)
    sim.trace("mac.tx", "nic", "m", z=1, a=2, m=3)
    sim.trace("mac.tx", "nic", "m", a=2, z=1, m=3)
    sim.issue("session", "nic", "m", z=1, a=2)
    orders = [["z", "a", "m"], ["a", "z", "m"], ["z", "a"]]
    assert [list(r.data) for r in sim.tracer.records] == orders
    assert [list(r.data) for r in sim.tracer] == orders
    assert [list(r.data) for r in sim.tracer.select("")] == orders
    assert [list(r.data) for r in sim.tracer.issues()] == [["z", "a"]]


@pytest.mark.parametrize("payload,bound", [
    ({}, 64),
    ({"bytes": 1500, "channel": 6}, 160),
], ids=["no_payload", "two_keys"])
def test_stored_record_retains_few_bytes(payload, bound):
    """10,000 records traced at one time with one message string keep
    under ``bound`` bytes each: a payload dict per row took 105 B
    without a payload and 225 B with two keys."""
    sim = Simulator(seed=0, trace=True)
    message = "frame out"
    sim.trace("mac.tx", "nic", message, **payload)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(10_000):
            sim.trace("mac.tx", "nic", message, **payload)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(sim.tracer) == 10_001
    assert retained / 10_000 < bound


def test_stored_span_retains_few_bytes():
    """10,000 ended spans with the four-key payload of ``mac.tx`` keep
    under 180 bytes each: a payload dict per row took 243 B, key and
    value tuples 126 B."""
    sim = Simulator(seed=0, trace=True)
    payload = {"frame": 7, "dst": "hub", "channel": 6, "rate": "R11"}
    sim.span_end(sim.span_begin("mac.tx", "nic", **payload))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(10_000):
            sim.span_end(sim.span_begin("mac.tx", "nic", **payload))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sim.tracer.span_count == 10_001
    assert retained / 10_000 < 180
