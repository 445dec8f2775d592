"""Tests for the discrete-event scheduler."""

from __future__ import annotations

import math

import pytest

from repro.kernel.errors import ScheduleError, SimulationFinished
from repro.kernel.events import Priority
from repro.kernel.scheduler import Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_and_run_single_event(sim):
    fired = []
    sim.schedule(5.0, fired.append, "a")
    executed = sim.run()
    assert executed == 1
    assert fired == ["a"]
    assert sim.now == 5.0


def test_events_fire_in_time_order(sim):
    order = []
    sim.schedule(3.0, order.append, 3)
    sim.schedule(1.0, order.append, 1)
    sim.schedule(2.0, order.append, 2)
    sim.run()
    assert order == [1, 2, 3]


def test_same_time_events_fire_in_scheduling_order(sim):
    order = []
    for i in range(10):
        sim.schedule(1.0, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_priority_breaks_ties(sim):
    order = []
    sim.schedule(1.0, order.append, "app", priority=Priority.APP)
    sim.schedule(1.0, order.append, "medium", priority=Priority.MEDIUM)
    sim.schedule(1.0, order.append, "protocol", priority=Priority.PROTOCOL)
    sim.run()
    assert order == ["medium", "protocol", "app"]


def test_negative_delay_rejected(sim):
    with pytest.raises(ScheduleError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected(sim):
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(ScheduleError):
        sim.schedule_at(1.0, lambda: None)


@pytest.mark.parametrize("call", [
    lambda sim: sim.schedule(float("nan"), lambda: None),
    lambda sim: sim.schedule_at(float("nan"), lambda: None),
    lambda sim: sim.every(float("nan"), lambda: None),
    lambda sim: sim.run(until=float("nan")),
    lambda sim: sim.every(math.inf, lambda: None),
    lambda sim: sim.run(until=math.inf),
    lambda sim: sim.schedule(math.inf, lambda: None),
    lambda sim: sim.schedule_at(math.inf, lambda: None),
    lambda sim: sim.every(1.0, lambda: None, start=math.inf),
], ids=["schedule", "schedule_at", "every", "run_until", "every_inf",
        "run_until_inf", "schedule_inf", "schedule_at_inf", "every_start_inf"])
def test_nan_times_rejected(sim, call):
    """A NaN key breaks the heap order: delays 3, nan, 1, 2, 0.5 used to
    fire at 1, 0.5, 2, nan, 3, running the clock backwards.  Infinite
    times break the clock too: ``run(until=inf)`` left ``now`` at inf, so
    every later event landed there, and ``every(inf)`` fired forever at
    t=inf, so an unbounded ``run()`` never returned.  An event scheduled
    at inf ran and left ``now`` there."""
    with pytest.raises(ScheduleError):
        call(sim)
    assert sim.pending() == 0


@pytest.mark.parametrize("inner", [
    lambda sim: sim.run(until=10.0),
    lambda sim: sim.run(),
    lambda sim: sim.step(),
], ids=["run_until", "run", "step"])
def test_run_does_not_nest(sim, inner):
    """A callback cannot start a run of its own: an inner run(until=10)
    inside run(until=5) used to leave the clock at 10, past the outer
    horizon, and the outer call counted 1 of the 2 events that ran."""
    refused = []
    fired = []

    def reenter():
        with pytest.raises(ScheduleError):
            inner(sim)
        refused.append(sim.now)

    sim.schedule(1.0, reenter)
    sim.schedule(2.0, fired.append, 2)
    assert sim.run(until=5.0) == 2
    assert refused == [1.0]
    assert fired == [2]
    assert sim.now == 5.0
    # The refused inner call leaves the simulator usable.
    sim.schedule(1.0, fired.append, 6)
    assert sim.run() == 1
    assert fired == [2, 6]


def test_max_events_stop_keeps_clock_before_horizon(sim):
    """A run cut short by ``max_events`` must not jump the clock to its
    horizon: the events still due before it would then run the clock
    backwards."""
    times = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, lambda: times.append(sim.now))
    assert sim.run(until=10.0, max_events=1) == 1
    assert sim.now == 1.0
    assert sim.run(until=10.0) == 2
    assert times == [1.0, 2.0, 3.0]
    assert sim.now == 10.0


def test_run_until_advances_clock_to_horizon(sim):
    sim.schedule(1.0, lambda: None)
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_excludes_later_events(sim):
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=3.0)
    assert fired == ["early"]
    sim.run()
    assert fired == ["early", "late"]


def test_cancel_event(sim):
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []
    assert sim.pending() == 0


def test_cancel_is_idempotent(sim):
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    assert sim.run() == 0


def test_events_scheduled_during_run_execute(sim):
    fired = []

    def chain():
        fired.append("first")
        sim.schedule(1.0, fired.append, "second")

    sim.schedule(1.0, chain)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == 2.0


def test_call_soon_runs_at_current_time(sim):
    times = []
    sim.schedule(2.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
    sim.run()
    assert times == [2.0]


def test_max_events_limits_execution(sim):
    for i in range(10):
        sim.schedule(float(i + 1), lambda: None)
    assert sim.run(max_events=4) == 4
    assert sim.pending() == 6


def test_step_runs_exactly_one_event(sim):
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    assert sim.step() is True
    assert fired == [1]
    assert sim.step() is True
    assert sim.step() is False


def test_stop_discards_pending_events(sim):
    sim.schedule(1.0, lambda: None)
    sim.stop()
    assert sim.stopped
    with pytest.raises(SimulationFinished):
        sim.run()
    with pytest.raises(SimulationFinished):
        sim.schedule(1.0, lambda: None)


def test_stop_during_run_halts(sim):
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, 3)
    sim.run()
    assert fired == [1]


def test_peek_returns_next_live_event_time(sim):
    a = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.peek() == 1.0
    a.cancel()
    assert sim.peek() == 2.0


def test_peek_empty_queue(sim):
    assert sim.peek() is None


def test_periodic_task_fires_repeatedly(sim):
    times = []
    sim.every(2.0, lambda: times.append(sim.now))
    sim.run(until=9.0)
    assert times == [2.0, 4.0, 6.0, 8.0]


def test_periodic_task_start_offset(sim):
    times = []
    sim.every(2.0, lambda: times.append(sim.now), start=0.5)
    sim.run(until=5.0)
    assert times == [0.5, 2.5, 4.5]


def test_periodic_task_cancel(sim):
    times = []
    task = sim.every(1.0, lambda: times.append(sim.now))
    sim.schedule(3.5, task.cancel)
    sim.run(until=10.0)
    assert times == [1.0, 2.0, 3.0]
    assert task.fires == 3


def test_periodic_task_rejects_bad_interval(sim):
    with pytest.raises(ScheduleError):
        sim.every(0.0, lambda: None)


def test_events_executed_counter(sim):
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_deterministic_given_same_seed():
    def run_one(seed):
        sim = Simulator(seed=seed)
        values = []
        rng = sim.rng("test")
        sim.every(1.0, lambda: values.append(float(rng.random())))
        sim.run(until=10.0)
        return values

    assert run_one(7) == run_one(7)
    assert run_one(7) != run_one(8)


def test_issue_recorded_even_when_tracing_disabled():
    sim = Simulator(seed=0, trace=False)
    sim.trace("mac.tx", "x", "not recorded")
    sim.trace("issue.x", "x", "not recorded either")
    sim.issue("session", "x", "recorded")
    assert len(sim.tracer.records) == 1
    assert sim.tracer.records[0].category == "issue.session"


def test_issue_subscribers_run_with_tracing_still_disabled():
    sim = Simulator(seed=0, trace=False)

    def on_issue(record):
        sim.trace("mac.tx", "x", "traced from a subscriber")
        sim.span_begin("work", "x")

    sim.tracer.subscribe("issue", on_issue)
    sim.issue("session", "x", "recorded")
    assert [r.category for r in sim.tracer.records] == ["issue.session"]
    assert sim.tracer.spans == []
    assert sim._span_ctx is None


def test_context_registry_shared(sim):
    sim.context["medium"] = object()
    assert "medium" in sim.context
