"""Tests for the execution engine and the storage volume."""

from __future__ import annotations

import pytest

from repro.kernel.errors import ConfigurationError
from repro.resource.execution import ExecutionEngine
from repro.resource.platform import ExecutionSpec, StorageSpec
from repro.resource.storage import (
    OrganizationDenied,
    StorageFull,
    StorageVolume,
)


def _engine(sim, mips=100.0, multitasking=True, abortable=True):
    return ExecutionEngine(sim, ExecutionSpec(mips, multitasking, abortable))


# ---------------------------------------------------------------------------
# ExecutionEngine
# ---------------------------------------------------------------------------

def test_task_completes_after_expected_time(sim):
    engine = _engine(sim, mips=100.0)
    done = []
    engine.run_task("work", mi=50.0, on_done=lambda t: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(0.5)]


def test_tasks_round_robin_when_multitasking(sim):
    engine = _engine(sim, mips=100.0, multitasking=True)
    finished = []
    engine.run_task("long", mi=100.0, on_done=lambda t: finished.append("long"))
    engine.run_task("short", mi=10.0, on_done=lambda t: finished.append("short"))
    sim.run()
    # The short task finishes first despite arriving second (time slicing).
    assert finished == ["short", "long"]


def test_fifo_blocks_short_task_when_single_tasking(sim):
    engine = _engine(sim, mips=100.0, multitasking=False)
    finished = []
    engine.run_task("long", mi=100.0, on_done=lambda t: finished.append("long"))
    engine.run_task("short", mi=10.0, on_done=lambda t: finished.append("short"))
    sim.run()
    assert finished == ["long", "short"]


def test_interactive_delay_recorded_and_issue_raised(sim):
    engine = _engine(sim, mips=10.0, multitasking=False)
    engine.run_task("batch", mi=100.0)  # 10 s of batch work
    engine.run_task("tap", mi=1.0, interactive=True)
    sim.run()
    assert engine.worst_interactive_delay() == pytest.approx(10.0)
    assert len(sim.tracer.select("issue.execution")) == 1


def test_abort_supported(sim):
    engine = _engine(sim, abortable=True)
    task = engine.run_task("doomed", mi=1000.0)
    assert engine.abort(task)
    sim.run()
    assert task.aborted
    assert task in engine.aborted
    assert engine.completed == []


def test_abort_denied_records_issue(sim):
    engine = _engine(sim, abortable=False)
    task = engine.run_task("stuck", mi=10.0)
    assert not engine.abort(task)
    assert len(sim.tracer.select("issue.execution")) == 1
    sim.run()
    assert task.finished_at is not None  # it ran to completion anyway


def test_abort_finished_task_is_noop(sim):
    engine = _engine(sim)
    task = engine.run_task("quick", mi=1.0)
    sim.run()
    assert not engine.abort(task)


def test_queueing_delay_and_response_time(sim):
    engine = _engine(sim, mips=10.0, multitasking=False)
    engine.run_task("first", mi=50.0)
    task = engine.run_task("second", mi=10.0)
    sim.run()
    assert task.queueing_delay == pytest.approx(5.0)
    assert task.response_time == pytest.approx(6.0)


def test_zero_work_rejected(sim):
    engine = _engine(sim)
    with pytest.raises(ConfigurationError):
        engine.run_task("empty", mi=0.0)


def test_pending_count(sim):
    engine = _engine(sim)
    engine.run_task("a", mi=10.0)
    engine.run_task("b", mi=10.0)
    assert engine.utilisation_pending == 2
    sim.run()
    assert engine.utilisation_pending == 0


# ---------------------------------------------------------------------------
# StorageVolume
# ---------------------------------------------------------------------------

def _volume(sim, capacity=100.0, flexible=True, throughput=10.0):
    return StorageVolume(sim, StorageSpec(capacity, flexible, throughput))


def test_write_read_roundtrip(sim):
    volume = _volume(sim)
    volume.write("notes", 10.0)
    obj = volume.read("notes")
    assert obj.size_mb == 10.0
    assert "notes" in volume
    assert volume.used_mb == 10.0


def test_hierarchy_on_flexible_volume(sim):
    volume = _volume(sim, flexible=True)
    volume.write("talks/2000/icpp", 5.0)
    assert volume.listing("talks/") == ["talks/2000/icpp"]


def test_flat_volume_denies_hierarchy_and_issues(sim):
    volume = _volume(sim, flexible=False)
    with pytest.raises(OrganizationDenied):
        volume.write("talks/2000/icpp", 5.0)
    assert volume.denied_writes == 1
    assert len(sim.tracer.select("issue.storage")) == 1
    volume.write("icpp", 5.0)  # flat names still fine


def test_capacity_enforced(sim):
    volume = _volume(sim, capacity=10.0)
    volume.write("a", 8.0)
    with pytest.raises(StorageFull):
        volume.write("b", 5.0)
    assert volume.free_mb == pytest.approx(2.0)
    assert len(sim.tracer.select("issue.storage")) == 1


def test_overwrite_counts_delta(sim):
    volume = _volume(sim, capacity=10.0)
    volume.write("a", 8.0)
    volume.write("a", 9.0)  # only +1 over the existing object
    assert volume.used_mb == pytest.approx(9.0)


def test_transfer_time_and_async_completion(sim):
    volume = _volume(sim, throughput=5.0)
    done = []
    volume.write("big", 10.0, on_done=lambda: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(2.0)]


def test_read_missing_rejected(sim):
    with pytest.raises(ConfigurationError):
        _volume(sim).read("ghost")


def test_delete(sim):
    volume = _volume(sim)
    volume.write("a", 1.0)
    volume.delete("a")
    assert "a" not in volume and len(volume) == 0
    with pytest.raises(ConfigurationError):
        volume.delete("a")


def test_bad_paths_rejected(sim):
    volume = _volume(sim)
    for bad in ("", "/lead", "trail/"):
        with pytest.raises(ConfigurationError):
            volume.write(bad, 1.0)
