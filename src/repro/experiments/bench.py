"""Performance trajectory benchmarks and the gates that hold them.

The ROADMAP's north star is a simulator that runs "as fast as the hardware
allows"; this module is how that claim stays measured rather than asserted.
The ``bench_*`` runners measure the kernel timer chains, E2 sweeps, the
culled broadcast rooms, the run cache, telemetry export and sharding, and
return one JSON-able payload each, written as ``BENCH_<name>.json``.

Each payload is judged by declared :class:`Gate` rows — identity flags,
absolute floors and ceilings, and fractions of a like-sourced committed
baseline — through one :func:`evaluate`, so a regression fails
``make bench`` instead of landing silently.  The table of rows itself is
``repro.cli.BENCHES``: ``repro.checks.bench`` shares this package's layer
rank, so only the CLI may put both in one table.

Numbers are wall-clock and therefore machine-dependent: baseline gates
compare against ``benchmarks/baseline_*.json`` *relative* to when those
files were last regenerated (``--update-baseline``).
"""

from __future__ import annotations

import json
import pathlib
import platform
import textwrap
import time
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Mapping, NamedTuple,
                    Optional, Set, Tuple)

from ..kernel.errors import ConfigurationError
from ..kernel.scheduler import Simulator

#: Events per kernel microbenchmark run (matches benchmarks/test_bench_kernel.py).
KERNEL_EVENTS: int = 20_000

# ---------------------------------------------------------------------------
# Kernel microbenchmarks (the E10 scalability story)
# ---------------------------------------------------------------------------

def _timer_chain_schedule() -> int:
    """The classic self-rescheduling timer chain via the public API."""
    sim = Simulator(seed=1, trace=False)
    counter = [0]

    def tick() -> None:
        counter[0] += 1
        if counter[0] < KERNEL_EVENTS:
            sim.schedule(0.001, tick)

    sim.schedule(0.0, tick)
    sim.run()
    return counter[0]


def _timer_chain_bound() -> int:
    """The same chain through ``schedule_bound`` — the MAC/radio hot path."""
    sim = Simulator(seed=1, trace=False)
    counter = [0]

    def tick() -> None:
        counter[0] += 1
        if counter[0] < KERNEL_EVENTS:
            sim.schedule_bound(0.001, tick)

    sim.schedule_bound(0.0, tick)
    sim.run()
    return counter[0]


def _ops_per_sec(fn: Callable[[], Any], ops: int, repeats: int = 5) -> float:
    """``ops`` over the best of ``repeats`` timed calls, after one warm-up."""
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return ops / best


#: Iterations of the calibration workload (see :func:`calibration_spin`).
CALIBRATION_OPS: int = 200_000


def calibration_spin() -> int:
    """Machine-speed reference: a fixed pure-Python workload that no kernel
    change touches.  The regression gate divides throughput by this so a
    shared box running 2x slower today than when the baseline was recorded
    does not read as a kernel regression (and a real regression still
    shows, because it moves events/sec without moving this)."""
    total = 0
    for i in range(CALIBRATION_OPS):
        total += i & 7
    return total


def bench_kernel(repeats: int = 5) -> Dict[str, Any]:
    """Measure kernel event throughput on both scheduling paths."""
    return {
        "name": "kernel",
        "events_per_run": KERNEL_EVENTS,
        "events_per_sec":
            _ops_per_sec(_timer_chain_bound, KERNEL_EVENTS, repeats),
        "events_per_sec_public_schedule":
            _ops_per_sec(_timer_chain_schedule, KERNEL_EVENTS, repeats),
        "calibration_ops_per_sec":
            _ops_per_sec(calibration_spin, CALIBRATION_OPS, repeats),
        "source": "in-process",
    }


# ---------------------------------------------------------------------------
# Tracing-overhead benchmark (spans/records vs the disabled fast path)
# ---------------------------------------------------------------------------

def _timer_chain_records() -> int:
    """Timer chain that emits one trace record per event (ring-bounded)."""
    sim = Simulator(seed=1, trace=True, trace_capacity=1024,
                    trace_mode="ring")
    counter = [0]

    def tick() -> None:
        counter[0] += 1
        sim.trace("bench.tick", "bench", "tick", n=counter[0])
        if counter[0] < KERNEL_EVENTS:
            sim.schedule_bound(0.001, tick)

    sim.schedule_bound(0.0, tick)
    sim.run()
    return counter[0]


def _timer_chain_spans() -> int:
    """Timer chain that opens and closes one span per event."""
    sim = Simulator(seed=1, trace=True, trace_capacity=1024,
                    trace_mode="ring")
    counter = [0]

    def tick() -> None:
        counter[0] += 1
        span = sim.span_begin("bench.tick", "bench")
        if counter[0] < KERNEL_EVENTS:
            sim.schedule_bound(0.001, tick)
        sim.span_end(span)

    sim.schedule_bound(0.0, tick)
    sim.run()
    return counter[0]


def bench_trace(repeats: int = 5) -> Dict[str, Any]:
    """Measure tracing overhead: disabled vs records vs spans.

    ``events_per_sec_disabled`` re-times the bound timer chain with tracing
    off — the figure the ``trace.events_per_sec_disabled`` gate holds
    against the committed kernel baseline.  The enabled-path ratios are
    *within-run* (same process, same thermal state), so they are portable
    across machines.
    """
    disabled = _ops_per_sec(_timer_chain_bound, KERNEL_EVENTS, repeats)
    records = _ops_per_sec(_timer_chain_records, KERNEL_EVENTS, repeats)
    spans = _ops_per_sec(_timer_chain_spans, KERNEL_EVENTS, repeats)
    return trace_ratios({
        "name": "trace",
        "events_per_run": KERNEL_EVENTS,
        "events_per_sec_disabled": disabled,
        "events_per_sec_records": records,
        "events_per_sec_spans": spans,
        "source": "in-process",
    })


def trace_ratios(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Add the enabled-over-disabled throughput ratios to a trace payload
    (again after a ``--raw`` ingest replaces the three rates)."""
    disabled = payload["events_per_sec_disabled"]
    for arm in ("records", "spans"):
        rate = payload[f"events_per_sec_{arm}"]
        payload[f"{arm}_overhead_ratio"] = rate / disabled if disabled else 0.0
    return payload


# ---------------------------------------------------------------------------
# Sweep benchmark (E2 density sweep, serial vs parallel, cache hit rate)
# ---------------------------------------------------------------------------

def _usable_cpus() -> int:
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        import multiprocessing
        return multiprocessing.cpu_count()


def bench_sweeps(workers: int = 4,
                 densities=(0, 2, 4, 8),
                 duration: float = 5.0) -> Dict[str, Any]:
    """Time the E2 sweep serial vs parallel and report cache behaviour.

    The parallel/serial row comparison doubles as a determinism check —
    ``rows_identical`` must be True on every machine.  ``cpus`` records
    how many cores the process may actually use (container affinity, not
    nominal machine size) and ``bytes_shipped`` the pickled traffic that
    crossed the pool pipe — the two numbers that explain a flat speedup.
    """
    from .e2_interference import run as e2_run
    from .workloads import interferer_field, projector_room

    t0 = time.perf_counter()
    serial = e2_run(densities=densities, duration=duration)
    serial_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = e2_run(densities=densities, duration=duration, workers=workers)
    parallel_wall = time.perf_counter() - t0

    # Link-cache hit rate on a representative dense room.
    room = projector_room(seed=2, trace=False, register=False)
    interferer_field(room, 16, frames_per_second=20.0)
    room.sim.run(until=3.0)
    cache_stats = room.medium.link_cache.stats()

    return {
        "name": "sweeps",
        "sweep_points": len(serial.rows),
        "duration_per_point_s": duration,
        "serial_wall_s": serial_wall,
        "parallel_wall_s": parallel_wall,
        "workers": workers,
        "cpus": _usable_cpus(),
        "parallel_speedup": serial_wall / parallel_wall if parallel_wall else 0.0,
        "rows_identical": serial.rows == parallel.rows,
        "bytes_shipped": parallel.meta.get("bytes_shipped"),
        "link_cache": cache_stats,
    }


# ---------------------------------------------------------------------------
# Run-cache benchmark (incremental sweeps: cold vs warm)
# ---------------------------------------------------------------------------

def bench_cache(densities=(0, 2, 4), duration: float = 10.0,
                repeats: int = 3) -> Dict[str, Any]:
    """Cold vs warm E2 sweep through the content-addressed run cache.

    Three modes of the same sweep: *uncached* (``cache=False``), *cold*
    (caching on, empty directory — computes and stores), *warm* (same
    directory again — replays every row from disk).  Uncached and cold
    are interleaved best-of-``repeats`` so a host-load phase cannot land
    on one mode only; each cold round gets a fresh directory.  Rows must
    be byte-identical across all three modes — the cache is only allowed
    to be faster, never different.
    """
    import tempfile

    from .cache import RunCache, source_digest
    from .e2_interference import run as e2_run

    # The source digest is memoized process-wide (one hash per session,
    # amortised over every sweep); prewarm it so the cold figure measures
    # steady-state caching cost, not the one-time hash.
    source_digest()

    kwargs = dict(densities=densities, duration=duration)
    uncached_wall = float("inf")
    cold_wall = float("inf")
    uncached = cold = warm = None
    with tempfile.TemporaryDirectory() as tmp:
        for attempt in range(max(1, repeats)):
            t0 = time.perf_counter()
            uncached = e2_run(cache=False, **kwargs)
            uncached_wall = min(uncached_wall, time.perf_counter() - t0)

            cache = RunCache(pathlib.Path(tmp) / f"round-{attempt}")
            t0 = time.perf_counter()
            cold = e2_run(cache=cache, **kwargs)
            cold_wall = min(cold_wall, time.perf_counter() - t0)

        # Warm replay against the last round's populated cache.
        warm_wall = float("inf")
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            warm = e2_run(cache=cache, **kwargs)
            warm_wall = min(warm_wall, time.perf_counter() - t0)

    identical = (uncached.rows == cold.rows == warm.rows
                 and uncached.columns == cold.columns == warm.columns
                 and uncached.telemetry == cold.telemetry == warm.telemetry)
    return {
        "name": "cache",
        "sweep_points": len(uncached.rows),
        "duration_per_point_s": duration,
        "uncached_wall_s": uncached_wall,
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "warm_speedup": uncached_wall / warm_wall if warm_wall else 0.0,
        "cold_overhead_ratio": (cold_wall / uncached_wall - 1.0
                                if uncached_wall else 0.0),
        "warm_hit_rate": warm.meta["cache"]["hit_rate"],
        "cold_stores": cold.meta["cache"]["stores"],
        "rows_identical": identical,
        "source": "in-process",
    }


# ---------------------------------------------------------------------------
# Population-scale benchmark (spatial-grid audibility culling)
# ---------------------------------------------------------------------------

#: Station counts for the scale benchmark (the ISSUE's 200/500/1000 ladder).
SCALE_STATIONS = (200, 500, 1000)

#: Simulated seconds per scale point (broadcast-heavy, 2 frames/s/station).
SCALE_DURATION_S: float = 2.0


def _run_broadcast_point(stations: int, culling: bool,
                         duration: float) -> Dict[str, Any]:
    from .workloads import broadcast_room

    room = broadcast_room(stations, culling=culling)
    t0 = time.perf_counter()
    room.sim.run(until=duration)
    wall = time.perf_counter() - t0
    events = room.sim.events_executed
    return {
        "culling": culling,
        "wall_s": wall,
        "events": events,
        "events_per_sec": events / wall if wall else 0.0,
        "deliveries": sorted(room.deliveries),
        "tx_attempts": sum(m.stats["tx_attempts"] for m in room.macs),
        "rx_frames": sum(m.stats["rx_frames"] for m in room.macs),
        "culling_stats": room.medium.culling_stats(),
    }


def bench_scale(stations=SCALE_STATIONS,
                duration: float = SCALE_DURATION_S) -> Dict[str, Any]:
    """Wall time and events/sec for growing populations, culled vs not.

    Each station count runs the same broadcast-heavy room twice — once
    with the spatial-grid audible-set fast path, once with the exhaustive
    all-stations scan — and the delivery logs must match exactly
    (``outcomes_identical``): the fast path is only allowed to be faster,
    never different.
    """
    rows: List[Dict[str, Any]] = []
    identical = True
    for n in stations:
        culled = _run_broadcast_point(n, True, duration)
        exhaustive = _run_broadcast_point(n, False, duration)
        same = (culled["deliveries"] == exhaustive["deliveries"]
                and culled["tx_attempts"] == exhaustive["tx_attempts"]
                and culled["rx_frames"] == exhaustive["rx_frames"])
        identical = identical and same
        rows.append({
            "stations": n,
            "culled_wall_s": culled["wall_s"],
            "exhaustive_wall_s": exhaustive["wall_s"],
            "culled_events_per_sec": culled["events_per_sec"],
            "exhaustive_events_per_sec": exhaustive["events_per_sec"],
            "speedup": (exhaustive["wall_s"] / culled["wall_s"]
                        if culled["wall_s"] else 0.0),
            "events": culled["events"],
            "deliveries": len(culled["deliveries"]),
            "tx_attempts": culled["tx_attempts"],
            "cull_rate": culled["culling_stats"]["cull_rate"],
            "set_reuses": culled["culling_stats"]["set_reuses"],
            "outcomes_identical": same,
        })
    top = rows[-1]
    return {
        "name": "scale",
        "duration_s": duration,
        "rows": rows,
        "speedup_at_max": top["speedup"],
        "culled_events_per_sec_at_max": top["culled_events_per_sec"],
        "outcomes_identical": identical,
        "source": "in-process",
    }


# ---------------------------------------------------------------------------
# Sharded-cells benchmark: E11's rooms as sweep tasks vs one simulator
# ---------------------------------------------------------------------------

#: Cells in the disjoint-rooms configuration, and worker processes.
SHARD_CELLS: int = 4

#: Stations per cell; 4 x 300 puts the grid in the 1k-5k band while
#: keeping the single-process oracle under ~10 s.
SHARD_STATIONS_PER_CELL: int = 300

#: Simulated horizon.
SHARD_HORIZON_S: float = 0.5


def bench_shard(cells: int = SHARD_CELLS,
                stations_per_cell: int = SHARD_STATIONS_PER_CELL,
                horizon: float = SHARD_HORIZON_S) -> Dict[str, Any]:
    """E11 with one worker per room vs the single-process culled oracle.

    The rooms lie further apart than the interference radius, so each
    runs as an independent sweep task.  Outcomes must be byte-identical
    to the oracle on every machine: each room's delivery log, run
    in-process through the same room builder the E11 tasks use, against
    the oracle's log for that room, and the forked E11 rows against the
    counts taken from the oracle logs.  Merged telemetry must equal the
    oracle's summary.  The wall-clock ratio is the headline speedup.
    """
    from ..telemetry.summary import merge_summaries
    from .cellgrid import (cell_layout, cell_room, cell_rooms,
                           deliveries_by_room, e11_sharded_cells)

    layout = cell_layout(cells=cells, stations_per_cell=stations_per_cell,
                         seed=7)

    t0 = time.perf_counter()
    oracle = cell_rooms(layout)
    oracle.sim.run(until=horizon)
    oracle_wall = time.perf_counter() - t0
    oracle_summary = oracle.aggregator.summary()
    by_room = deliveries_by_room(layout, oracle.deliveries)
    oracle_logs = [by_room.get(room, []) for room in range(cells)]

    t0 = time.perf_counter()
    sharded = e11_sharded_cells(seed=7, shards=cells, cells=cells,
                                stations_per_cell=stations_per_cell,
                                horizon=horizon)
    sharded_wall = time.perf_counter() - t0

    room_logs = []
    for room in range(cells):
        alone = cell_room(layout, room)
        alone.sim.run(until=horizon)
        room_logs.append(alone.deliveries)
    expected_rows = [
        {"room": room, "stations": stations_per_cell,
         "deliveries": len(log), "senders": len({src for _, src, _ in log})}
        for room, log in enumerate(oracle_logs)]

    return {
        "name": "shard",
        "stations": layout.stations,
        "cells": cells,
        "shards": cells,
        "horizon_s": horizon,
        "oracle_wall_s": oracle_wall,
        "sharded_wall_s": sharded_wall,
        "oracle_deliveries": len(oracle.deliveries),
        "oracle_deliveries_per_sec": (len(oracle.deliveries) / oracle_wall
                                      if oracle_wall else 0.0),
        "speedup": oracle_wall / sharded_wall if sharded_wall else 0.0,
        "mode": sharded.meta["mode"],
        "outcomes_identical": (room_logs == oracle_logs
                               and sharded.rows == expected_rows),
        "telemetry_identical": (sharded.telemetry
                                == [merge_summaries([oracle_summary])]),
        "cpus": _usable_cpus(),
        "source": "in-process",
    }


# ---------------------------------------------------------------------------
# Telemetry-export benchmark (JSONL vs columnar vs streaming at 1M events)
# ---------------------------------------------------------------------------

#: Logical trace records in the export comparison (the million-event
#: regime the columnar path exists for).
TELEMETRY_EVENTS: int = 1_000_000

#: Records generated per chunk — the export arms regenerate each chunk
#: and never hold the full record list, so the benchmark itself stays
#: bounded-memory at any event count.
TELEMETRY_CHUNK: int = 20_000

#: One completed span rides along per this many records.
TELEMETRY_SPAN_EVERY: int = 25

#: Kernel events in the streaming-vs-replay memory probe.
TELEMETRY_MEMORY_EVENTS: int = 200_000

#: Kernel events in the streaming-vs-replay summary equivalence check.
TELEMETRY_SUMMARY_EVENTS: int = 50_000

_TELEMETRY_CATEGORIES = ("mac.tx", "mac.rx", "net.route", "transport.send",
                         "session.lease", "env.sense", "disc.announce",
                         "bench.tick")
_TELEMETRY_SOURCES = tuple(f"station-{i:02d}" for i in range(32))
_TELEMETRY_MESSAGES = ("queued", "sent", "delivered", "dropped",
                       "retry scheduled", "acknowledged", "renewed",
                       "expired")


def _telemetry_chunk(chunk_index: int, size: int):
    """One deterministic chunk of synthetic records + completed spans.

    The mix mirrors real traces: heavily repeated category/source/message
    vocabulary (what dictionary encoding exploits) with a thin stream of
    unique messages (what keeps the string pool honest), and small
    structured payloads drawn from a bounded value set.
    """
    from ..kernel.trace import Span, TraceRecord

    base = chunk_index * size
    records = []
    spans = []
    for k in range(size):
        i = base + k
        if i % 50 == 0:
            message = f"unique event {i}"
        else:
            message = _TELEMETRY_MESSAGES[i % 8]
        records.append(TraceRecord(
            time=i * 1e-3,
            category=_TELEMETRY_CATEGORIES[i % 8],
            source=_TELEMETRY_SOURCES[i % 32],
            message=message,
            data={"n": i & 63, "batch": chunk_index},
        ))
        if i % TELEMETRY_SPAN_EVERY == 0:
            span_id = i // TELEMETRY_SPAN_EVERY + 1
            spans.append(Span(
                span_id=span_id,
                parent_id=span_id - 1 if span_id > 1 and span_id % 4 == 0
                else None,
                category="bench.step",
                source=_TELEMETRY_SOURCES[i % 32],
                start=i * 1e-3,
                end=i * 1e-3 + 5e-4,
                status="ok"))
    return records, spans


def _time_export(writer_factory: Callable[[], Any], events: int,
                 chunk: int) -> Dict[str, Any]:
    """Feed the synthetic workload through one writer, timing only the
    writer calls (chunk generation is identical across formats and runs
    untimed, so the figure isolates export cost)."""
    snapshot = {"time": events * 1e-3,
                "counters": {"bench.records": float(events)},
                "gauges": {}, "latencies": {}, "probes": {}}
    writer = writer_factory()
    wall = 0.0
    chunks = max(1, events // chunk)
    for chunk_index in range(chunks):
        records, spans = _telemetry_chunk(chunk_index, chunk)
        t0 = time.perf_counter()
        for record in records:
            writer.write_record(record)
        for span in spans:
            writer.write_span(span)
        wall += time.perf_counter() - t0
    t0 = time.perf_counter()
    writer.write_metrics(snapshot)
    writer.close()
    wall += time.perf_counter() - t0
    return {"wall_s": wall, "bytes": writer.path.stat().st_size,
            "lines": writer.lines}


def _telemetry_chain(n_events: int, trace_mode: str, attach: bool):
    """A seeded kernel run emitting records/issues/spans every event —
    the live-simulation side of the streaming comparisons."""
    from ..telemetry.streaming import StreamingAggregator

    kwargs = {} if trace_mode == "head" else {"trace_mode": trace_mode}
    sim = Simulator(seed=11, trace=True, **kwargs)
    aggregator = (StreamingAggregator(user_sources=("bench-user",))
                  .attach(sim) if attach else None)
    counter = [0]

    def tick() -> None:
        counter[0] += 1
        i = counter[0]
        sim.trace("bench.tick", "bench", "tick", n=i & 63)
        if i % 100 == 0:
            sim.issue("issue.session", "bench-user", "renewal stalled", n=i)
        if i % TELEMETRY_SPAN_EVERY == 0:
            span = sim.span_begin("bench.step", "bench")
            sim.span_end(span)
        if i < n_events:
            sim.schedule_bound(0.001, tick)

    sim.schedule_bound(0.0, tick)
    sim.run()
    return sim, aggregator


def _peak_memory(fn: Callable[[], Any]) -> int:
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def bench_telemetry(events: int = TELEMETRY_EVENTS,
                    chunk: int = TELEMETRY_CHUNK) -> Dict[str, Any]:
    """JSONL vs columnar export cost plus streaming-aggregation bounds.

    Three arms:

    * **export**: the same ``events`` synthetic records (+ spans + one
      metrics snapshot) through ``JsonlWriter`` and ``ColumnarWriter``,
      chunked so neither the benchmark nor the writers ever hold the
      full record list; reports bytes-on-disk and writer-only wall time.
    * **summary equivalence**: twin seeded kernel runs — one stored and
      folded afterwards by ``StreamingAggregator.replay``, one
      ``stream``-mode folded live by ``StreamingAggregator.attach`` —
      must produce byte-identical summaries.
    * **memory**: the same run traced in ``head`` mode (stores every
      record) vs ``stream`` mode (stores nothing), peak traced memory
      compared (``telemetry.stream_memory_ratio``).

    The disabled path (tracing off on the bound timer chain) is timed and
    gated once, by :func:`bench_trace` (``trace.events_per_sec_disabled``).
    """
    import tempfile

    from ..telemetry.columnar import ColumnarWriter
    from ..telemetry.jsonl import JsonlWriter
    from ..telemetry.streaming import StreamingAggregator

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = pathlib.Path(tmp)
        jsonl = _time_export(
            lambda: JsonlWriter(tmp_path / "bench.jsonl"), events, chunk)
        columnar = _time_export(
            lambda: ColumnarWriter(tmp_path / "bench.npz"), events, chunk)

    replay_sim, _ = _telemetry_chain(TELEMETRY_SUMMARY_EVENTS, "head", False)
    stream_sim, aggregator = _telemetry_chain(
        TELEMETRY_SUMMARY_EVENTS, "stream", True)
    replay_summary = StreamingAggregator(
        user_sources=("bench-user",)).replay(replay_sim).summary()
    stream_summary = aggregator.summary()
    summary_identical = (
        json.dumps(replay_summary, sort_keys=True, default=repr)
        == json.dumps(stream_summary, sort_keys=True, default=repr))
    stream_stored_records = len(stream_sim.tracer)
    stream_stored_spans = stream_sim.tracer.span_count

    replay_peak = _peak_memory(
        lambda: _telemetry_chain(TELEMETRY_MEMORY_EVENTS, "head", False))
    stream_peak = _peak_memory(
        lambda: _telemetry_chain(TELEMETRY_MEMORY_EVENTS, "stream", True))

    return {
        "name": "telemetry",
        "events": events,
        "spans": events // TELEMETRY_SPAN_EVERY,
        "jsonl_wall_s": jsonl["wall_s"],
        "columnar_wall_s": columnar["wall_s"],
        "write_speedup": (jsonl["wall_s"] / columnar["wall_s"]
                          if columnar["wall_s"] else 0.0),
        "jsonl_bytes": jsonl["bytes"],
        "columnar_bytes": columnar["bytes"],
        "size_ratio": (jsonl["bytes"] / columnar["bytes"]
                       if columnar["bytes"] else 0.0),
        "lines_identical": jsonl["lines"] == columnar["lines"],
        "summary_events": TELEMETRY_SUMMARY_EVENTS,
        "summary_identical": summary_identical,
        "stream_stored_records": stream_stored_records,
        "stream_stored_spans": stream_stored_spans,
        "memory_events": TELEMETRY_MEMORY_EVENTS,
        "replay_peak_bytes": replay_peak,
        "stream_peak_bytes": stream_peak,
        "stream_memory_ratio": (stream_peak / replay_peak
                                if replay_peak else 0.0),
        "source": "in-process",
    }


# ---------------------------------------------------------------------------
# JSON persistence
# ---------------------------------------------------------------------------

def _environment() -> Dict[str, str]:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def write_bench_json(directory: pathlib.Path, payload: Dict[str, Any]) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` under ``directory`` and return the path."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{payload['name']}.json"
    body = dict(payload)
    body["environment"] = _environment()
    path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    return path


def load_json(path: pathlib.Path) -> Optional[Dict[str, Any]]:
    """A baseline or BENCH file as a dict; None when the file is absent."""
    path = pathlib.Path(path)
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: expected a JSON object")
    return data


def load_raw(path: pathlib.Path) -> Dict[str, float]:
    """Best-round seconds per test from a ``pytest --benchmark-json`` dump.

    The ``min`` statistic: on shared, bursty hosts the best round is far
    more stable than the mean, and a genuine regression moves it too.
    """
    best = {}
    for entry in (load_json(path) or {}).get("benchmarks", ()):
        try:
            name, seconds = entry["name"], float(entry["stats"]["min"])
        except (KeyError, TypeError, ValueError):
            raise ConfigurationError(
                f"{path}: benchmark entry without a numeric stats.min: "
                f"{entry!r:.80}") from None
        if seconds <= 0.0:
            raise ConfigurationError(
                f"{path}: {name}: stats.min must be positive, got {seconds}")
        best[name] = seconds
    return best


# ---------------------------------------------------------------------------
# Gates as data: one row per benchmark, one evaluator for every gate
# ---------------------------------------------------------------------------

#: Kinds that compare against a committed baseline figure.
BASELINE_KINDS = ("baseline", "calibrated")

#: The machine-speed figure both sides of a ``calibrated`` gate divide by.
CALIBRATION_KEY = "calibration_ops_per_sec"


@dataclass(frozen=True)
class Gate:
    """One declared check on a BENCH payload.

    ``kind`` is ``true`` (an identity flag), ``min`` or ``max`` (an
    absolute floor or ceiling), ``baseline`` (at least ``limit`` times a
    like-sourced baseline figure) or ``calibrated`` (the same after both
    sides are divided by their ``calibration_ops_per_sec``).  ``key`` is
    dotted for nested payload keys; ``figure`` names the baseline figure
    as ``row.key`` when it is not the gate's own.  Below ``cpus`` usable
    cores, or with a payload ``mode`` other than ``mode``, the gate is
    skipped.  ``reason`` says why the gate exists.
    """

    key: str
    kind: str
    limit: float = 0.0
    reason: str = ""
    figure: str = ""
    cpus: int = 0
    mode: str = ""

    def figure_of(self, row: str) -> Tuple[str, str]:
        """``(row, key)`` of the baseline figure this gate reads."""
        if not self.figure:
            return row, self.key
        figure_row, key = self.figure.split(".", 1)
        return figure_row, key

    def condition(self) -> str:
        if self.kind == "true":
            text = "is true"
        elif self.kind == "min":
            text = f">= {self.limit:g}"
        elif self.kind == "max":
            text = f"<= {self.limit:g}"
        else:
            text = f">= {self.limit:g} x baseline"
            if self.figure:
                text += f" {self.figure}"
            if self.kind == "calibrated":
                text += f" per {CALIBRATION_KEY}"
        when = ([f"cpus >= {self.cpus}"] if self.cpus else []) + \
            ([f"mode == {self.mode}"] if self.mode else [])
        return f"{text} when {' and '.join(when)}" if when else text


@dataclass(frozen=True)
class Bench:
    """One benchmark: its runner, its gates and its ``--raw`` tests.

    ``run`` takes the CLI's parsed arguments (``workers``, ``repeats``).
    ``raw`` lists ``(pytest test name, payload key, operations per
    call)``; ``derive`` recomputes figures derived from ingested ones.
    """

    name: str
    run: Callable[[Any], Dict[str, Any]]
    gates: Tuple[Gate, ...]
    raw: Tuple[Tuple[str, str, int], ...] = ()
    derive: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None


def ingest(row: Bench, payload: Dict[str, Any],
           best: Mapping[str, float]) -> Dict[str, Any]:
    """Replace ``row``'s in-process rates with pytest-benchmark ones.

    All or nothing: a dump lacking any of the row's tests leaves the
    payload in-process, so one file never mixes the two sources.
    """
    if not row.raw or any(test not in best for test, _key, _ops in row.raw):
        return payload
    for test, key, ops in row.raw:
        payload[key] = ops / best[test]
    payload["source"] = "pytest-benchmark"
    return row.derive(payload) if row.derive else payload


class Verdict(NamedTuple):
    gate: str    # ``row.key``
    kind: str
    status: str  # ``ok``, ``FAIL`` or ``skipped (<why>)``
    line: str    # the printed verdict


def baseline_rows(rows: Iterable[Bench]) -> Set[str]:
    """Names of the rows whose committed baseline the gates of ``rows`` read."""
    return {gate.figure_of(row.name)[0] for row in rows for gate in row.gates
            if gate.kind in BASELINE_KINDS}


def baseline_skip(baseline: Optional[Dict[str, Any]],
                  payload: Dict[str, Any]) -> Optional[str]:
    """Why ``baseline`` cannot be compared with ``payload``, or None.

    In-process and pytest-benchmark timings are not comparable, so only
    like-sourced files are.
    """
    if baseline is None:
        return "no baseline"
    if baseline.get("source") != payload.get("source"):
        return (f"baseline source {baseline.get('source')!r} != "
                f"{payload.get('source')!r}")
    return None


def evaluate(row: Bench, payload: Dict[str, Any],
             baselines: Mapping[str, Optional[Dict[str, Any]]],
             ) -> List[Verdict]:
    """Judge every gate of ``row`` on ``payload``.

    ``baselines`` maps row names to loaded baseline payloads.  A gate
    whose payload key is missing fails; a baseline gate is skipped when
    its file is absent, unlike-sourced or lacks the figure.
    """
    verdicts = []
    for gate in row.gates:
        shown, status = _judge(row.name, gate, payload, baselines)
        line = f"{row.name}.{gate.key} {gate.condition()}: {shown} {status}"
        if status == "FAIL":
            line += f" — {gate.reason}"
        verdicts.append(Verdict(f"{row.name}.{gate.key}", gate.kind,
                                status, line))
    return verdicts


def _judge(row: str, gate: Gate, payload: Dict[str, Any],
           baselines: Mapping[str, Optional[Dict[str, Any]]],
           ) -> Tuple[str, str]:
    """``(measured value as shown, status)`` for one gate."""
    value = _lookup(payload, gate.key)
    cpus = payload.get("cpus") or 1
    if gate.cpus and cpus < gate.cpus:
        return _show(value), f"skipped (cpus {cpus} < {gate.cpus})"
    if gate.mode and payload.get("mode") != gate.mode:
        return _show(value), (f"skipped (mode {payload.get('mode')!r} "
                              f"!= {gate.mode!r})")
    needs = [gate.key] + ([CALIBRATION_KEY] if gate.kind == "calibrated"
                          else [])
    missing = [key for key in needs if _lookup(payload, key) is None]
    if missing:
        return f"missing {', '.join(missing)}", "FAIL"
    if gate.kind == "true":
        return _show(value), _status(value is True)
    if gate.kind == "min":
        return _show(value), _status(value >= gate.limit)
    if gate.kind == "max":
        return _show(value), _status(value <= gate.limit)
    if gate.kind not in BASELINE_KINDS:
        raise ValueError(f"{row}.{gate.key}: unknown gate kind {gate.kind!r}")
    figure_row, figure_key = gate.figure_of(row)
    baseline = baselines.get(figure_row)
    skip = baseline_skip(baseline, payload)
    if skip:
        return _show(value), f"skipped ({skip})"
    lacking = [key for key in [figure_key] + needs[1:]
               if not _nonzero_number(baseline.get(key))]
    if lacking:
        return _show(value), f"skipped (baseline lacks {lacking[0]})"
    base = baseline[figure_key]
    if gate.kind == "baseline":
        floor = base * gate.limit
        return (f"{_show(value)} (floor {_show(floor)})",
                _status(value >= floor))
    ratio = ((value / payload[CALIBRATION_KEY])
             / (base / baseline[CALIBRATION_KEY]))
    return f"{_show(ratio)}x", _status(ratio >= gate.limit)


def _lookup(payload: Optional[Dict[str, Any]], key: str) -> Any:
    for part in key.split("."):
        payload = payload.get(part) if isinstance(payload, dict) else None
    return payload


def _nonzero_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and value != 0


def _status(ok: bool) -> str:
    return "ok" if ok else "FAIL"


def _show(value: Any) -> str:
    if value is None or isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, float)):
        return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.3g}"
    return repr(value)


def gate_list(rows: Iterable[Bench]) -> str:
    """Every gate as ``row.key condition`` with its reason: the threshold
    list ``repro.cli bench --help`` prints."""
    lines = ["gates (each prints ok, FAIL or skipped with why):"]
    for row in rows:
        for gate in row.gates:
            lines.append(f"  {row.name}.{gate.key} {gate.condition()}")
            lines.extend(textwrap.wrap(gate.reason, 72,
                                       initial_indent="      ",
                                       subsequent_indent="      ",
                                       break_on_hyphens=False))
    return "\n".join(lines)
