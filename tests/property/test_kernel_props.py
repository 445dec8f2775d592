"""Property-based tests for the kernel: ordering, determinism, processes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.errors import ConfigurationError
from repro.kernel.random import RandomStreams
from repro.kernel.scheduler import Simulator

delays = st.lists(st.floats(min_value=0.0, max_value=1000.0,
                            allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=50)


@given(delays)
@settings(max_examples=60, deadline=None)
def test_events_always_fire_in_nondecreasing_time_order(times):
    sim = Simulator(seed=0)
    fired = []
    for t in times:
        sim.schedule(t, lambda t=t: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)


@given(delays)
@settings(max_examples=30, deadline=None)
def test_clock_never_goes_backwards(times):
    sim = Simulator(seed=0)
    observed = []
    for t in times:
        sim.schedule(t, lambda: observed.append(sim.now))
    last = [0.0]

    while sim.step():
        assert sim.now >= last[0]
        last[0] = sim.now


@given(st.lists(st.integers(min_value=0, max_value=49), min_size=1,
                max_size=30), delays)
@settings(max_examples=40, deadline=None)
def test_cancellation_removes_exactly_the_cancelled(cancel_indices, times):
    sim = Simulator(seed=0)
    fired = []
    events = [sim.schedule(t, fired.append, i)
              for i, t in enumerate(times)]
    cancelled = set()
    for idx in cancel_indices:
        if idx < len(events):
            events[idx].cancel()
            cancelled.add(idx)
    sim.run()
    assert set(fired) == set(range(len(times))) - cancelled


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_named_streams_reproducible(seed):
    a = RandomStreams(seed)
    b = RandomStreams(seed)
    for name in ("mac.x", "user.y", "radio"):
        assert a.stream(name).random() == b.stream(name).random()


@given(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
               min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_stream_any_name_works(name):
    streams = RandomStreams(7)
    value = streams.stream(name).random()
    assert 0.0 <= value < 1.0


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
               min_size=1, max_size=20),
       st.lists(st.integers(min_value=0, max_value=300), min_size=1,
                max_size=4))
@settings(max_examples=60, deadline=None)
def test_uniforms_view_serves_exactly_the_stream(seed, name, counts):
    """``uniforms(name)`` returns the doubles of as many raw
    ``random()`` calls, across its block edges; every call returns the
    same view; and a name cannot be taken both raw and as a view, in
    either order."""
    streams = RandomStreams(seed)
    reference = RandomStreams(seed).stream(name)
    view = streams.uniforms(name)
    for count in counts:
        assert ([next(view) for _ in range(count)]
                == [reference.random() for _ in range(count)])
        assert streams.uniforms(name) is view
    with pytest.raises(ConfigurationError):
        streams.stream(name)
    raw_first = RandomStreams(seed)
    raw_first.stream(name)
    with pytest.raises(ConfigurationError):
        raw_first.uniforms(name)


@given(st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=1,
                max_size=10))
@settings(max_examples=30, deadline=None)
def test_process_sleep_sums(delays_list):
    from repro.kernel.process import spawn

    sim = Simulator(seed=0)

    def proc():
        for d in delays_list:
            yield d
        return sim.now

    p = spawn(sim, proc())
    sim.run()
    assert p.result == sum(delays_list)
