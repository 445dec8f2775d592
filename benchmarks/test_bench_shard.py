"""Sharded multi-cell grid: E11's rooms as sweep tasks vs one simulator.

The 1.2k-station disjoint cell grid runs once in a single culled
simulator and once as E11 with one forked worker per room.  Per-room
delivery logs, E11's rows and merged telemetry must be byte-identical on
every host.  The wall-clock ratio is the headline speedup; its floors
apply only where the run forked onto enough usable cpus, because on
fewer cores than shards the workers time-slice one core and the ratio is
scheduling noise.  E11 runs its rooms through the same fork pool as every
parallel sweep, so this floor is the one that holds the pool to paying.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict

from repro.experiments.cellgrid import (cell_layout, cell_room, cell_rooms,
                                        deliveries_by_room, e11_sharded_cells)
from repro.experiments.harness import ExperimentResult
from repro.telemetry.summary import merge_summaries

#: Cells in the disjoint-rooms configuration, and worker processes.
CELLS = 4

#: Stations per cell; 4 x 300 puts the grid in the 1k-5k band while
#: keeping the single-process oracle under ~10 s.
STATIONS_PER_CELL = 300

#: Simulated horizon.
HORIZON_S = 0.5

#: ``(usable cpus at least, speedup floor)`` for runs that forked.  Two
#: independent rooms per core read 1.28-2.25x over 22 runs on a 2-cpu
#: host.
SPEEDUP_FLOORS = ((2, 1.2), (4, 2.0))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def bench_shard() -> Dict[str, Any]:
    """E11 with one worker per room vs the single-process culled oracle.

    Each room's delivery log, run in-process through the room builder
    the E11 tasks use, must equal the oracle's log for that room, and the
    forked E11 rows the counts taken from the oracle logs.  Merged
    telemetry must equal the oracle's summary.
    """
    layout = cell_layout(cells=CELLS, stations_per_cell=STATIONS_PER_CELL,
                         seed=7)

    t0 = time.perf_counter()
    oracle = cell_rooms(layout)
    oracle.sim.run(until=HORIZON_S)
    oracle_wall = time.perf_counter() - t0
    by_room = deliveries_by_room(layout, oracle.deliveries)
    oracle_logs = [by_room.get(room, []) for room in range(CELLS)]

    t0 = time.perf_counter()
    sharded = e11_sharded_cells(seed=7, shards=CELLS, cells=CELLS,
                                stations_per_cell=STATIONS_PER_CELL,
                                horizon=HORIZON_S)
    sharded_wall = time.perf_counter() - t0

    room_logs = []
    for room in range(CELLS):
        alone = cell_room(layout, room)
        alone.sim.run(until=HORIZON_S)
        room_logs.append(alone.deliveries)
    expected_rows = [
        {"room": room, "stations": STATIONS_PER_CELL,
         "deliveries": len(log), "senders": len({src for _, src, _ in log})}
        for room, log in enumerate(oracle_logs)]

    return {
        "stations": layout.stations,
        "oracle_wall_s": oracle_wall,
        "sharded_wall_s": sharded_wall,
        "speedup": oracle_wall / sharded_wall,
        "mode": sharded.meta["mode"],
        "cpus": _usable_cpus(),
        "outcomes_identical": (room_logs == oracle_logs
                               and sharded.rows == expected_rows),
        "telemetry_identical": (
            sharded.telemetry
            == [merge_summaries([oracle.aggregator.summary()])]),
    }


def test_sharded_grid_vs_oracle(benchmark, record_table):
    shard = benchmark.pedantic(bench_shard, iterations=1, rounds=1)
    floor = max((limit for cpus, limit in SPEEDUP_FLOORS
                 if shard["mode"] == "processes" and shard["cpus"] >= cpus),
                default=None)
    result = ExperimentResult(
        "BENCH-shard",
        "sharded multi-cell grid vs single-process culled oracle",
        ["config", "stations", "mode", "wall_s"])
    result.add_row(config="disjoint", stations=shard["stations"],
                   mode="oracle", wall_s=shard["oracle_wall_s"])
    result.add_row(config="disjoint", stations=shard["stations"],
                   mode=f"{CELLS}-shard/{shard['mode']}",
                   wall_s=shard["sharded_wall_s"])
    result.notes.append(
        f"speedup {shard['speedup']:.2f}x on {shard['cpus']} cpus (floor "
        f"{'none' if floor is None else f'{floor:g}x'}), outcomes "
        f"identical: {shard['outcomes_identical']}, telemetry identical: "
        f"{shard['telemetry_identical']}")
    record_table(result)
    assert shard["outcomes_identical"]
    assert shard["telemetry_identical"]
    if floor is not None:
        assert shard["speedup"] >= floor
