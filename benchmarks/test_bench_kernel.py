"""E10: simulator scalability — event throughput vs deployment size.

The paper says the effect of high device concentrations "needs to be
studied"; studying it at scale needs a kernel that stays fast as the
device count grows.  These are true microbenchmarks (pytest-benchmark
statistics matter here, unlike the table-regeneration benches).
"""

from __future__ import annotations

import pytest

from repro.experiments.bench import (_timer_chain_bound, _timer_chain_records,
                                     _timer_chain_schedule, _timer_chain_spans,
                                     calibration_spin)
from repro.experiments.workloads import interferer_field, projector_room
from repro.kernel.scheduler import Simulator


def test_machine_calibration(benchmark):
    """Fixed pure-Python workload — the machine-speed reference the
    regression gate uses to tell load swings from kernel regressions."""
    total = benchmark(calibration_spin)
    assert total > 0


def test_kernel_event_throughput(benchmark):
    """Throughput of the kernel hot path (``schedule_bound``) — the loop
    the MAC/radio layers actually drive.  ``repro.cli bench --raw`` keys
    on this test name."""
    events = benchmark(_timer_chain_bound)
    assert events == 20_000


def test_kernel_public_schedule_throughput(benchmark):
    """Throughput of the validated public ``schedule`` path."""
    events = benchmark(_timer_chain_schedule)
    assert events == 20_000


def test_trace_records_throughput(benchmark):
    """The bound timer chain emitting one trace record per event — the
    enabled-tracing price the BENCH_trace.json overhead ratios gate."""
    events = benchmark(_timer_chain_records)
    assert events == 20_000


def test_trace_spans_throughput(benchmark):
    """The bound timer chain opening/closing one causal span per event."""
    events = benchmark(_timer_chain_spans)
    assert events == 20_000


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
