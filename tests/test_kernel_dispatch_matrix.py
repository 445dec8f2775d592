"""Dispatch-core matrix oracle: every trace mode must be byte-identical
on seeded workloads.

The run loop of :mod:`repro.kernel.dispatch` restores span context
around callbacks; tracing may not change *what* the simulation
computes — only what it records.  These tests sweep the matrix:

* **trace**: off / ``head`` / ``ring`` / ``stream`` — untraced runs,
  and every retention policy of the tracer;
* **metrics**: a periodic MONITOR-priority sampler on or off — the
  monitor events ride the same queue as everything else.

Within each metrics arm, every trace mode is compared against one
reference outcome (trace off).  The fingerprint deliberately excludes
retained trace records — ``ring`` keeps a suffix and ``stream`` keeps
nothing by design — and the ``kernel.*`` metrics, which describe the
event store rather than the simulation; everything else must match
exactly.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import pytest

from repro.discovery.leases import LeaseTable
from repro.experiments.workloads import interferer_field, projector_room
from repro.kernel.events import Priority
from repro.kernel.scheduler import Simulator

#: None = tracing disabled.
TRACE_MODES = (None, "head", "ring", "stream")

#: Case ids of the metrics arms.  Every case runs the one event store:
#: timer classes are heap entries, the engine the matrix used to select
#: with its ``unbatched`` / ``backend-python`` columns, so the ids keep
#: that suffix and each case still names the run it has always pinned.
METRICS_IDS = ("metrics-unbatched-backend-python",
               "no-metrics-unbatched-backend-python")


def _sim_kwargs(trace_mode: Optional[str]) -> Dict[str, Any]:
    if trace_mode is None:
        return {"trace": False}
    kwargs: Dict[str, Any] = {"trace": True, "trace_mode": trace_mode}
    if trace_mode == "ring":
        kwargs["trace_capacity"] = 512
    return kwargs


def _metrics_fingerprint(sim: Simulator) -> Dict[str, Any]:
    """Non-kernel metrics: *what* the simulation did.  ``kernel.*``
    gauges report how the event store executed it (same convention as
    the golden-digest tests)."""
    if sim._metrics is None:
        return {}
    out: Dict[str, Any] = {}
    for section, values in sim.metrics.snapshot().items():
        if isinstance(values, dict):
            out[section] = {name: value for name, value in values.items()
                            if not name.startswith("kernel")}
        else:
            out[section] = values
    return out


def _attach_monitor(sim: Simulator, samples: list) -> None:
    """The metrics arm: a periodic MONITOR-priority sampler whose events
    ride the shared queue — its firing times are part of the outcome."""
    gauge = sim.metrics.gauge("matrix.pending")

    def sample() -> None:
        gauge.set(float(sim.pending()))
        samples.append((sim.now, sim.pending()))

    sim.every(1.0, sample, priority=int(Priority.MONITOR))


# ---------------------------------------------------------------------------
# Workload 1: the projector room with co-channel interferers
# ---------------------------------------------------------------------------

def _projector_outcome(trace_mode: Optional[str], metrics: bool) -> Tuple:
    room = projector_room(seed=3, **_sim_kwargs(trace_mode))
    interferer_field(room, 4, frames_per_second=40.0)
    samples: list = []
    if metrics:
        _attach_monitor(room.sim, samples)
    room.sim.run(until=8.0)
    macs = {name: dict(room.medium._macs[name].stats)
            for name in room.medium.stations()}
    return (room.sim.now, room.sim.events_executed,
            _metrics_fingerprint(room.sim), tuple(samples), macs)


@pytest.fixture(scope="module")
def projector_reference():
    cache: Dict[bool, Tuple] = {}

    def get(metrics: bool) -> Tuple:
        if metrics not in cache:
            cache[metrics] = _projector_outcome(None, metrics)
        return cache[metrics]

    return get


@pytest.mark.parametrize("metrics", (True, False), ids=METRICS_IDS)
@pytest.mark.parametrize("trace_mode", TRACE_MODES,
                         ids=("trace-off", "trace-head", "trace-ring",
                              "trace-stream"))
def test_projector_room_matrix(projector_reference, trace_mode, metrics):
    got = _projector_outcome(trace_mode, metrics)
    want = projector_reference(metrics)
    for got_part, want_part in zip(got, want):
        assert got_part == want_part


# ---------------------------------------------------------------------------
# Workload 2: the lease storm (sweep + renewal chains)
# ---------------------------------------------------------------------------

def _lease_storm_outcome(trace_mode: Optional[str], metrics: bool) -> Tuple:
    sim = Simulator(seed=9, **_sim_kwargs(trace_mode))
    table = LeaseTable(sim, sweep_interval=0.5)
    rng = sim.rng("storm")
    durations = [2.0, 3.0, 5.0]
    renewed = [0]
    samples: list = []
    if metrics:
        _attach_monitor(sim, samples)

    def chain(lease_id: int, duration: float) -> None:
        lease = table.get(lease_id)
        if lease is None or sim.now + 0.45 * duration > 25.0:
            return
        table.renew(lease_id)
        renewed[0] += 1
        sim.schedule(0.45 * duration, chain, lease_id, duration)

    for i in range(120):
        duration = durations[int(rng.integers(0, len(durations)))]
        lease = table.grant(f"holder-{i}", f"res-{i}", duration)
        sim.schedule(0.45 * duration, chain, lease.lease_id, duration)

    sim.run(until=30.0)
    return (sim.now, sim.events_executed, renewed[0], len(table),
            _metrics_fingerprint(sim), tuple(samples))


@pytest.fixture(scope="module")
def storm_reference():
    cache: Dict[bool, Tuple] = {}

    def get(metrics: bool) -> Tuple:
        if metrics not in cache:
            cache[metrics] = _lease_storm_outcome(None, metrics)
        return cache[metrics]

    return get


@pytest.mark.parametrize("metrics", (True, False), ids=METRICS_IDS)
@pytest.mark.parametrize("trace_mode", TRACE_MODES,
                         ids=("trace-off", "trace-head", "trace-ring",
                              "trace-stream"))
def test_lease_storm_matrix(storm_reference, trace_mode, metrics):
    got = _lease_storm_outcome(trace_mode, metrics)
    want = storm_reference(metrics)
    for got_part, want_part in zip(got, want):
        assert got_part == want_part

