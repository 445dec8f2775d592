"""Tests for generator-based processes and signals."""

from __future__ import annotations

import pytest

from repro.kernel.errors import ProcessError
from repro.kernel.process import Signal, spawn


def test_process_sleeps_for_yielded_delay(sim):
    log = []

    def proc():
        log.append(("start", sim.now))
        yield 2.5
        log.append(("end", sim.now))

    spawn(sim, proc())
    sim.run()
    assert log == [("start", 0.0), ("end", 2.5)]


def test_process_result_captured(sim):
    def proc():
        yield 1.0
        return 42

    p = spawn(sim, proc())
    sim.run()
    assert p.done and p.result == 42 and p.error is None


def test_process_error_captured_not_raised(sim):
    def proc():
        yield 1.0
        raise ValueError("boom")

    p = spawn(sim, proc())
    sim.run()
    assert p.done and isinstance(p.error, ValueError)


def test_negative_delay_fails_process(sim):
    def proc():
        yield -1.0

    p = spawn(sim, proc())
    sim.run()
    assert isinstance(p.error, ProcessError)


def test_nan_delay_fails_process(sim):
    def proc():
        yield float("nan")

    p = spawn(sim, proc())
    sim.run()
    assert isinstance(p.error, ProcessError)


def test_bad_yield_value_fails_process(sim):
    def proc():
        yield "nonsense"

    p = spawn(sim, proc())
    sim.run()
    assert isinstance(p.error, ProcessError)


def test_spawn_requires_generator(sim):
    with pytest.raises(ProcessError):
        spawn(sim, lambda: None)  # type: ignore[arg-type]


def test_spawn_with_delay(sim):
    times = []

    def proc():
        times.append(sim.now)
        yield 0.0

    spawn(sim, proc(), delay=3.0)
    sim.run()
    assert times == [3.0]


def test_signal_wakes_waiting_process(sim):
    signal = Signal(sim, "go")
    log = []

    def waiter():
        value = yield signal
        log.append((sim.now, value))

    spawn(sim, waiter())
    sim.schedule(5.0, signal.fire, "payload")
    sim.run()
    assert log == [(5.0, "payload")]


def test_signal_fire_count_and_waiter_count(sim):
    signal = Signal(sim, "s")
    results = []
    signal.wait(results.append)
    signal.wait(results.append)
    woken = signal.fire("v")
    assert woken == 2
    sim.run()
    assert results == ["v", "v"]
    assert signal.fire_count == 1


def test_signal_is_edge_triggered(sim):
    signal = Signal(sim, "s")
    results = []
    signal.fire("early")
    signal.wait(results.append)
    sim.run()
    assert results == []  # registered after the fire: waits for the next
    signal.fire("late")
    sim.run()
    assert results == ["late"]


def test_process_waits_for_child_process(sim):
    log = []

    def child():
        yield 2.0
        return "child-result"

    def parent():
        result = yield spawn(sim, child())
        log.append((sim.now, result))

    spawn(sim, parent())
    sim.run()
    assert log == [(2.0, "child-result")]


def test_waiting_on_finished_process_resumes_immediately(sim):
    def child():
        yield 1.0
        return 7

    child_proc = spawn(sim, child())

    def parent():
        yield 5.0  # child finishes long before
        value = yield child_proc
        return value

    parent_proc = spawn(sim, parent())
    sim.run()
    assert parent_proc.result == 7


def test_interrupt_ends_process(sim):
    def proc():
        yield 100.0

    p = spawn(sim, proc())
    sim.schedule(1.0, p.interrupt)
    sim.run()
    assert p.done
    assert isinstance(p.error, ProcessError)


def test_interrupt_finished_process_is_noop(sim):
    def proc():
        yield 0.5
        return "ok"

    p = spawn(sim, proc())
    sim.run()
    p.interrupt()
    assert p.result == "ok" and p.error is None


def test_process_finished_signal_fires(sim):
    hits = []

    def proc():
        yield 1.0
        return "r"

    p = spawn(sim, proc())
    p.finished.wait(hits.append)
    sim.run()
    assert hits == ["r"]
