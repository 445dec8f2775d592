"""E10: simulator scalability — event throughput vs deployment size.

The paper says the effect of high device concentrations "needs to be
studied"; studying it at scale needs a kernel that stays fast as the
device count grows.  These are true microbenchmarks (pytest-benchmark
statistics matter here, unlike the table-regeneration benches).  Kernel
speed on real workloads is timed end to end by ``bench/``; these keep
three shapes it does not run: a cancellation storm, a growing device
count and the room's start-up.
"""

from __future__ import annotations

import pytest

from repro.experiments.workloads import interferer_field, projector_room
from repro.kernel.scheduler import Simulator


def test_kernel_cancellation_storm(benchmark):
    """Mass-cancelled periodic tasks must not degrade the event loop —
    exercises the cancellation counter + heap compaction."""

    def run_storm():
        sim = Simulator(seed=1, trace=False)
        tasks = [sim.every(1.0, lambda: None) for _ in range(5_000)]
        for task in tasks:
            task.cancel()
        survivors = [0]
        sim.every(1.0, lambda: survivors.__setitem__(0, survivors[0] + 1))
        sim.run(until=50.0)
        return survivors[0]

    fires = benchmark(run_storm)
    assert fires == 50


@pytest.mark.parametrize("pairs", [4, 16, 32])
def test_medium_scales_with_device_count(benchmark, pairs):
    def run_dense():
        room = projector_room(seed=2, trace=False, register=False)
        interferer_field(room, pairs, frames_per_second=20.0)
        room.sim.run(until=3.0)
        return room.sim.events_executed

    events = benchmark.pedantic(run_dense, iterations=1, rounds=3)
    assert events > 0


def test_full_room_startup(benchmark):
    """Time to assemble and settle the complete Smart Projector room."""

    def build():
        room = projector_room(seed=3, trace=False)
        room.sim.run(until=2.0)
        return len(room.registry.items())

    items = benchmark(build)
    assert items == 2
