"""E11's rooms as sweep tasks: byte-identical to the one-simulator oracle.

The load-bearing claims, each pinned here:

* each room run alone on its own simulator delivers exactly what the
  whole grid in one simulator delivers to that room;
* E11's rows and merged telemetry are the same for every shard count,
  serial or forked, and equal the counts taken from the oracle's logs;
* a room worker that dies mid-run ends E11 in ``ExperimentError``
  instead of a hang, and a room that raises ships its traceback;
* ``merge_summaries`` sums the parts and drops how-not-what counters.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.experiments.sweeps as sweeps_mod
from repro.experiments import cellgrid
from repro.experiments.cellgrid import (cell_layout, cell_room, cell_rooms,
                                        deliveries_by_room)
from repro.experiments.harness import run_experiment
from repro.experiments.sweeps import shutdown_shared_pool
from repro.kernel.errors import ConfigurationError, ExperimentError
from repro.telemetry.summary import merge_summaries, telemetry_summary

#: 3 cells x 6 stations: small enough for the fixed-hash-seed CI step.
GRID = {"cells": 3, "stations_per_cell": 6, "seed": 11}
HORIZON = 0.75

fork_available = "fork" in multiprocessing.get_all_start_methods()


def _oracle():
    layout = cell_layout(**GRID)
    rooms = cell_rooms(layout)
    rooms.sim.run(until=HORIZON)
    summary = telemetry_summary(rooms.sim, stream=rooms.aggregator)
    by_room = deliveries_by_room(layout, rooms.deliveries)
    return ([by_room.get(room, []) for room in range(layout.cells)],
            merge_summaries([summary]))


def _e11(shards):
    return run_experiment("E11", shards=shards, horizon=HORIZON, **GRID)


# ---------------------------------------------------------------------------
# Identity against the oracle
# ---------------------------------------------------------------------------

def test_each_room_alone_matches_the_oracle():
    layout = cell_layout(**GRID)
    logs, _telemetry = _oracle()
    assert all(logs)
    for room in range(layout.cells):
        alone = cell_room(layout, room)
        alone.sim.run(until=HORIZON)
        assert alone.deliveries == logs[room]


@pytest.mark.parametrize("forked", [
    pytest.param(True, marks=pytest.mark.skipif(
        not fork_available, reason="no fork start method")),
    False,
], ids=["forked", "serial"])
@pytest.mark.parametrize("shards", [1, 2, 3])
def test_e11_rows_and_telemetry_equal_across_shard_counts(
        shards, forked, monkeypatch):
    if not forked:
        monkeypatch.setattr(sweeps_mod, "_fork_available", lambda: False)
        monkeypatch.setattr(sweeps_mod, "_WARNED_NO_FORK", True)
    logs, telemetry = _oracle()
    result = _e11(shards)
    assert result.rows == [
        {"room": room, "stations": GRID["stations_per_cell"],
         "deliveries": len(log), "senders": len({src for _, src, _ in log})}
        for room, log in enumerate(logs)]
    assert result.telemetry == [telemetry]
    assert result.meta["mode"] == ("processes" if forked and shards > 1
                                   else "single-process")
    assert result.notes[0].startswith(
        f"{result.meta['mode']} x{shards} over {HORIZON:g}s, "
        f"{telemetry['events_executed']} events")


# ---------------------------------------------------------------------------
# Worker failure surfaces as errors, not hangs
# ---------------------------------------------------------------------------

#: E11 whose room 1 exits its worker process mid-run, then E11 again.
#: Run in a fresh interpreter with a timeout, so a pool that loses the
#: dead worker's task fails the test instead of hanging the suite.
_DYING_ROOM = f"""
import os
from repro.experiments import cellgrid
from repro.experiments.harness import run_experiment
from repro.kernel.errors import ExperimentError

real = cellgrid.cell_room

def dying(layout, room):
    rooms = real(layout, room)
    if room == 1:
        rooms.sim.schedule(0.05, os._exit, 3)
    return rooms

cellgrid.cell_room = dying
try:
    run_experiment("E11", shards=2, horizon={HORIZON!r}, **{GRID!r})
except ExperimentError as exc:
    print("ExperimentError:", exc)
cellgrid.cell_room = real
print(run_experiment("E11", shards=2, horizon={HORIZON!r}, **{GRID!r}).rows)
"""


@pytest.mark.skipif(not fork_available, reason="no fork start method")
def test_e11_worker_death_raises_and_the_next_run_works():
    src_dir = pathlib.Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    out = subprocess.run([sys.executable, "-c", _DYING_ROOM], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    died, rows = out.stdout.splitlines()
    assert died.startswith("ExperimentError: a sweep worker process died")
    assert rows == repr(_e11(1).rows)


def _raising_room(layout, room, real=cell_room):
    rooms = real(layout, room)
    if room == 1:
        def boom():
            raise RuntimeError("room went sideways")

        rooms.sim.schedule(0.05, boom)
    return rooms


@pytest.mark.skipif(not fork_available, reason="no fork start method")
def test_e11_worker_exception_ships_its_traceback(monkeypatch):
    monkeypatch.setattr(cellgrid, "cell_room", _raising_room)
    shutdown_shared_pool()  # fork workers that see the patch
    try:
        with pytest.raises(RuntimeError, match="room went sideways") as info:
            _e11(2)
        assert "boom" in str(info.value.__cause__)
        assert sweeps_mod._SHARED_POOL is None
    finally:
        shutdown_shared_pool()


# ---------------------------------------------------------------------------
# merge_summaries: the per-room telemetry reduction
# ---------------------------------------------------------------------------

def _summary(events, counters, issues=None):
    return {"sim_time": 1.0, "events_executed": events, "records": 0,
            "records_dropped": 0, "spans": 0, "spans_open": 0,
            "issues_by_layer": issues or {}, "issues_by_column": {},
            "metrics": {"counters": counters}}


def test_merge_summaries_sums_and_drops_how_not_what_counters():
    merged = merge_summaries([
        _summary(10, {"mac.tx": 4.0, "medium.culling.skipped": 100.0},
                 issues={"phys": 1}),
        _summary(5, {"mac.tx": 2.0, "mac.rx": 1.0},
                 issues={"phys": 2, "net": 1}),
    ])
    assert merged["events_executed"] == 15
    assert merged["sim_time"] == 1.0
    assert merged["metrics"]["counters"] == {"mac.rx": 1.0, "mac.tx": 6.0}
    assert merged["issues_by_layer"] == {"net": 1, "phys": 3}


def test_merge_summaries_rejects_nothing():
    with pytest.raises(ConfigurationError):
        merge_summaries([])
