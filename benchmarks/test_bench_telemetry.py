"""Telemetry export and streaming aggregation: JSONL vs columnar vs live.

The columnar exporter exists for million-event runs; this
table-regenerating bench runs the same synthetic workload through both
writers at a CI-friendly scale and records bytes-on-disk, writer-only
wall time, and the streaming-aggregation memory bound alongside the
paper tables in ``results.txt``.  ``repro.cli bench`` gates the full
1M-event figures via ``BENCH_telemetry.json``; here the same ``telemetry``
row judges the CI-scale run, without baselines.
"""

from __future__ import annotations

from repro.cli import BENCHES
from repro.experiments.bench import bench_telemetry, evaluate
from repro.experiments.harness import ExperimentResult

TELEMETRY = next(row for row in BENCHES if row.name == "telemetry")

#: CI-friendly event count — gates are ratios, so they hold at any scale.
BENCH_EVENTS = 200_000


def test_telemetry_columnar_vs_jsonl(benchmark, record_table):
    telemetry = benchmark.pedantic(
        lambda: bench_telemetry(events=BENCH_EVENTS),
        iterations=1, rounds=1)
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
    verdicts = evaluate(TELEMETRY, telemetry, {})
    result.notes.extend(verdict.line for verdict in verdicts)
    record_table(result)
    assert telemetry["summary_identical"]
    assert telemetry["stream_stored_records"] == 0
    assert [v.line for v in verdicts if v.status == "FAIL"] == []
