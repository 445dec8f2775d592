"""Telemetry export and streaming aggregation: JSONL vs columnar vs live.

The columnar exporter exists for million-event runs.  This bench runs one
deterministic synthetic workload through both writers and records
bytes-on-disk and writer-only wall time alongside the paper tables in
``results.txt``.  It also holds the streaming fold to the stored-trace
fold: a run folded live in ``stream`` mode must summarise byte-identically
to the same run stored and folded afterwards by the tests' oracle
(``tests/fold_oracle.py``), while storing nothing and peaking at a
fraction of the stored run's memory.

Every floor is a ratio taken within one run, so it holds at any event
count; 200k events keeps the bench CI-sized.
"""

from __future__ import annotations

import json
import pathlib
import tempfile
import time
import tracemalloc
from typing import Any, Callable, Dict

from tests.fold_oracle import ReplayedAggregator

from repro.experiments.harness import ExperimentResult
from repro.kernel.scheduler import Simulator
from repro.kernel.trace import Span, TraceRecord
from repro.telemetry.columnar import ColumnarWriter
from repro.telemetry.jsonl import JsonlWriter
from repro.telemetry.streaming import StreamingAggregator

#: Logical trace records through each exporter.
EVENTS = 200_000

#: Records generated per chunk: the export arms regenerate each chunk and
#: never hold the full record list, so the bench stays bounded-memory.
CHUNK = 20_000

#: One completed span rides along per this many records.
SPAN_EVERY = 25

#: Kernel events in the stored-vs-streaming memory probe.
MEMORY_EVENTS = 200_000

#: Kernel events in the stored-vs-streaming summary identity check.
SUMMARY_EVENTS = 50_000

#: JSONL bytes over columnar bytes: 0.9 x 7.177, the ratio recorded when
#: the size floor was set.  The workload is fixed, so the ratio is
#: near-deterministic: 8.41 at 200k events, 8.44 at 1M.
SIZE_RATIO_FLOOR = 0.9 * 7.177

#: Columnar export must stay this much faster than JSONL, timed back to
#: back in one process.
WRITE_SPEEDUP_FLOOR = 2.0

#: Streaming peak memory over stored-trace peak memory.
STREAM_MEMORY_CEILING = 0.25

_CATEGORIES = ("mac.tx", "mac.rx", "net.route", "transport.send",
               "session.lease", "env.sense", "disc.announce", "bench.tick")
_SOURCES = tuple(f"station-{i:02d}" for i in range(32))
_MESSAGES = ("queued", "sent", "delivered", "dropped", "retry scheduled",
             "acknowledged", "renewed", "expired")


def _chunk(chunk_index: int, size: int):
    """One deterministic chunk of synthetic records + completed spans.

    The mix mirrors real traces: heavily repeated category/source/message
    vocabulary (what dictionary encoding exploits) with a thin stream of
    unique messages (what keeps the string pool honest), and small
    structured payloads drawn from a bounded value set.
    """
    base = chunk_index * size
    records = []
    spans = []
    for k in range(size):
        i = base + k
        message = f"unique event {i}" if i % 50 == 0 else _MESSAGES[i % 8]
        records.append(TraceRecord(
            time=i * 1e-3, category=_CATEGORIES[i % 8],
            source=_SOURCES[i % 32], message=message,
            data={"n": i & 63, "batch": chunk_index}))
        if i % SPAN_EVERY == 0:
            span_id = i // SPAN_EVERY + 1
            spans.append(Span(
                span_id=span_id,
                parent_id=span_id - 1 if span_id > 1 and span_id % 4 == 0
                else None,
                category="bench.step", source=_SOURCES[i % 32],
                start=i * 1e-3, end=i * 1e-3 + 5e-4, status="ok"))
    return records, spans


def _time_export(writer) -> Dict[str, Any]:
    """Feed the synthetic workload through one writer, timing only the
    writer calls (chunk generation is identical across formats and runs
    untimed, so the figure isolates export cost)."""
    wall = 0.0
    for chunk_index in range(EVENTS // CHUNK):
        records, spans = _chunk(chunk_index, CHUNK)
        t0 = time.perf_counter()
        for record in records:
            writer.write_record(record)
        for span in spans:
            writer.write_span(span)
        wall += time.perf_counter() - t0
    t0 = time.perf_counter()
    writer.write_metrics({"time": EVENTS * 1e-3,
                          "counters": {"bench.records": float(EVENTS)},
                          "gauges": {}, "latencies": {}, "probes": {}})
    writer.close()
    wall += time.perf_counter() - t0
    return {"wall_s": wall, "bytes": writer.path.stat().st_size,
            "lines": writer.lines}


def _chain(n_events: int, trace_mode: str, attach: bool):
    """A seeded kernel run emitting records, issues and spans every event:
    the live-simulation side of the streaming comparisons."""
    sim = Simulator(seed=11, trace=True, trace_mode=trace_mode)
    aggregator = (StreamingAggregator(user_sources=("bench-user",))
                  .attach(sim) if attach else None)
    counter = [0]

    def tick() -> None:
        counter[0] += 1
        i = counter[0]
        sim.trace("bench.tick", "bench", "tick", n=i & 63)
        if i % 100 == 0:
            sim.issue("issue.session", "bench-user", "renewal stalled", n=i)
        if i % SPAN_EVERY == 0:
            sim.span_end(sim.span_begin("bench.step", "bench"))
        if i < n_events:
            sim.schedule_bound(0.001, tick)

    sim.schedule_bound(0.0, tick)
    sim.run()
    return sim, aggregator


def _peak_memory(fn: Callable[[], Any]) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bench_telemetry() -> Dict[str, Any]:
    """JSONL vs columnar export, then stored vs streaming folds."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = pathlib.Path(tmp)
        jsonl = _time_export(JsonlWriter(tmp_path / "bench.jsonl"))
        columnar = _time_export(ColumnarWriter(tmp_path / "bench.npz"))

    stored_sim, _ = _chain(SUMMARY_EVENTS, "store", False)
    stream_sim, aggregator = _chain(SUMMARY_EVENTS, "stream", True)
    replayed = ReplayedAggregator(
        user_sources=("bench-user",)).replay(stored_sim).summary()

    stored_peak = _peak_memory(lambda: _chain(MEMORY_EVENTS, "store", False))
    stream_peak = _peak_memory(lambda: _chain(MEMORY_EVENTS, "stream", True))
    return {
        "events": EVENTS,
        "jsonl_wall_s": jsonl["wall_s"],
        "columnar_wall_s": columnar["wall_s"],
        "jsonl_bytes": jsonl["bytes"],
        "columnar_bytes": columnar["bytes"],
        "write_speedup": jsonl["wall_s"] / columnar["wall_s"],
        "size_ratio": jsonl["bytes"] / columnar["bytes"],
        "lines_identical": jsonl["lines"] == columnar["lines"],
        "summary_identical": (
            json.dumps(replayed, sort_keys=True, default=repr)
            == json.dumps(aggregator.summary(), sort_keys=True,
                          default=repr)),
        "stream_stored_records": len(stream_sim.tracer),
        "stream_stored_spans": stream_sim.tracer.span_count,
        "stream_memory_ratio": stream_peak / stored_peak,
    }


def test_telemetry_columnar_vs_jsonl(benchmark, record_table):
    telemetry = benchmark.pedantic(bench_telemetry, iterations=1, rounds=1)
    result = ExperimentResult(
        "BENCH-telemetry",
        "telemetry export formats and streaming aggregation",
        ["path", "events", "wall_s", "bytes"])
    result.add_row(path="jsonl", events=telemetry["events"],
                   wall_s=telemetry["jsonl_wall_s"],
                   bytes=telemetry["jsonl_bytes"])
    result.add_row(path="columnar", events=telemetry["events"],
                   wall_s=telemetry["columnar_wall_s"],
                   bytes=telemetry["columnar_bytes"])
    result.notes.append(
        f"columnar {telemetry['size_ratio']:.2f}x smaller (floor "
        f"{SIZE_RATIO_FLOOR:.2f}x), {telemetry['write_speedup']:.2f}x "
        f"faster (floor {WRITE_SPEEDUP_FLOOR:g}x); streaming peak "
        f"{telemetry['stream_memory_ratio']:.2%} of stored (ceiling "
        f"{STREAM_MEMORY_CEILING:.0%}), summaries identical: "
        f"{telemetry['summary_identical']}")
    record_table(result)
    assert telemetry["summary_identical"]
    assert telemetry["lines_identical"]
    assert telemetry["stream_stored_records"] == 0
    assert telemetry["stream_stored_spans"] == 0
    assert telemetry["size_ratio"] >= SIZE_RATIO_FLOOR
    assert telemetry["write_speedup"] >= WRITE_SPEEDUP_FLOOR
    assert telemetry["stream_memory_ratio"] <= STREAM_MEMORY_CEILING
