"""Tests for columnar telemetry export and streaming aggregation.

The contract under test: the columnar ``.npz`` export carries the same
logical lines as the JSONL export (and is byte-deterministic), the file
suffix picks the format, and a :class:`StreamingAggregator` folding the
run live gives the same summary and layer report as the oracle that
folds the stored trace afterwards (``tests/fold_oracle.py``) — including
when the live tracer runs in ``stream`` mode and stores nothing at all.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.kernel.errors import ConfigurationError
from repro.kernel.scheduler import Simulator
from repro.telemetry.columnar import ColumnarWriter, read_columnar, read_telemetry, write_run
from repro.telemetry.jsonl import read_jsonl
from repro.telemetry.report import layer_report, layer_report_data
from repro.telemetry.streaming import OVERFLOW_CATEGORY, StreamingAggregator
from repro.telemetry.summary import aggregate_telemetry
from tests.fold_oracle import ReplayedAggregator

USERS = {"alice"}


def _workload(sim: Simulator) -> None:
    """A deterministic mixed workload: records, spans (one left open),
    issues in both columns, an unclassifiable issue, and metrics."""
    def tick(n: int) -> None:
        sim.trace("mac.tx", "adapter", "frame out", bytes=100 + n, n=n)
        if n % 3 == 0:
            with sim.span("transport.send", "laptop", item=n):
                sim.trace("mac.rx", "adapter", "frame in")
        if n == 2:
            sim.issue("radio", "adapter", "multipath fade")
            sim.issue("goal", "alice", "projection expectation unmet")
            sim.issue("???", "mystery", "unplaceable concern")
        sim.metrics.counter("mac.frames").add()

    for n in range(6):
        sim.schedule(0.5 * n, tick, n)
    sim.run(until=4.0)
    sim.span_begin("session.hold", "alice")  # deliberately left open


# ---------------------------------------------------------------------------
# Columnar export: logical equality with JSONL, determinism, edge cases
# ---------------------------------------------------------------------------

def test_columnar_round_trip_matches_jsonl(sim, tmp_path):
    _workload(sim)
    jsonl_path = tmp_path / "run.jsonl"
    npz_path = tmp_path / "run.npz"
    jsonl_counts = write_run(jsonl_path, sim)
    npz_counts = write_run(npz_path, sim)
    assert npz_counts == jsonl_counts
    assert read_columnar(npz_path) == read_jsonl(jsonl_path)


def test_columnar_prefix_filter_matches_jsonl(sim, tmp_path):
    _workload(sim)
    a = write_run(tmp_path / "a.jsonl", sim, prefix="mac",
                  include_metrics=False)
    b = write_run(tmp_path / "b.npz", sim, prefix="mac",
                  include_metrics=False)
    assert a == b
    assert (read_columnar(tmp_path / "b.npz")
            == read_jsonl(tmp_path / "a.jsonl"))


def test_columnar_npz_is_byte_deterministic(tmp_path):
    paths = []
    for name in ("a.npz", "b.npz"):
        sim = Simulator(seed=99)
        _workload(sim)
        path = tmp_path / name
        write_run(path, sim)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_columnar_repeated_export_is_byte_identical(sim, tmp_path):
    _workload(sim)
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    write_run(a, sim)
    write_run(b, sim)
    assert a.read_bytes() == b.read_bytes()


def test_columnar_open_span_and_parent_round_trip(sim, tmp_path):
    with sim.span("outer", "t"):
        with sim.span("inner", "t"):
            pass
    sim.span_begin("dangling", "t")
    path = tmp_path / "spans.npz"
    write_run(path, sim, include_metrics=False)
    spans = {line["category"]: line for line in read_columnar(path)}
    assert spans["outer"]["parent_id"] is None
    assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
    assert spans["dangling"]["end"] is None
    assert spans["outer"]["end"] is not None


def test_columnar_distinguishes_equal_payload_values(sim, tmp_path):
    """1, 1.0 and True are equal (and hash alike) in Python but are
    different JSON — the payload memo must never conflate them."""
    sim.trace("t", "s", "int", n=1)
    sim.trace("t", "s", "float", n=1.0)
    sim.trace("t", "s", "bool", n=True)
    path = tmp_path / "payloads.npz"
    write_run(path, sim, include_metrics=False)
    values = [line["data"]["n"] for line in read_columnar(path)]
    assert values == [1, 1.0, True]
    assert [type(v) for v in values] == [int, float, bool]


def test_columnar_keeps_the_sign_of_zero(sim, tmp_path):
    """0.0 and -0.0 are equal and hash alike, as are 1, 1.0 and True,
    but JSON writes each differently, also inside a tuple: both exports
    must read back the same values, compared by their JSON text."""
    for value in (0.0, -0.0, 1, 1.0, True, (0.0,), (-0.0,), (1,), (True,)):
        sim.trace("t", "s", "x", x=value)
    write_run(tmp_path / "run.jsonl", sim, include_metrics=False)
    write_run(tmp_path / "run.npz", sim, include_metrics=False)
    jsonl = read_telemetry(tmp_path / "run.jsonl")
    assert [json.dumps(line["data"]["x"]) for line in jsonl] == [
        "0.0", "-0.0", "1", "1.0", "true", "[0.0]", "[-0.0]", "[1]",
        "[true]"]
    assert (json.dumps(read_telemetry(tmp_path / "run.npz"), sort_keys=True)
            == json.dumps(jsonl, sort_keys=True))


def test_columnar_unserialisable_payload_degrades_to_repr(sim, tmp_path):
    sim.trace("t", "s", "obj", obj=object())
    path = tmp_path / "obj.npz"
    write_run(path, sim, include_metrics=False)
    (line,) = read_columnar(path)
    assert line["data"]["obj"].startswith("<object object")


def test_read_telemetry_dispatches_by_suffix(sim, tmp_path):
    _workload(sim)
    write_run(tmp_path / "run.jsonl", sim)
    write_run(tmp_path / "run.npz", sim)
    assert (read_telemetry(tmp_path / "run.npz")
            == read_telemetry(tmp_path / "run.jsonl"))


def _stream_run() -> Simulator:
    """A stream-mode run with two records, one an issue, and one span."""
    sim = Simulator(seed=7, trace_mode="stream")
    sim.trace("mac.tx", "adapter", "frame out")
    sim.issue("radio", "adapter", "multipath fade")
    with sim.span("transport.send", "laptop"):
        pass
    return sim


@pytest.mark.parametrize("name", ["run.npz", "run.jsonl"])
def test_write_run_refuses_a_stream_mode_trace(tmp_path, name):
    with pytest.raises(ConfigurationError, match="'stream' mode"):
        write_run(tmp_path / name, _stream_run())
    assert not (tmp_path / name).exists()


def test_write_run_picks_the_format_by_suffix(sim, tmp_path):
    _workload(sim)
    for name in ("run.npz", "run.jsonl", "run.log"):
        write_run(tmp_path / name, sim)
    assert (tmp_path / "run.npz").read_bytes()[:2] == b"PK"  # zip container
    assert (tmp_path / "run.log").read_bytes() == \
        (tmp_path / "run.jsonl").read_bytes()
    assert (read_columnar(tmp_path / "run.npz")
            == read_jsonl(tmp_path / "run.log"))


def test_columnar_writer_flush_and_context_manager(sim, tmp_path):
    sim.trace("t", "s", "one")
    path = tmp_path / "flush.npz"
    with ColumnarWriter(path) as writer:
        writer.write_record(sim.tracer.records[0])
        writer.flush()
        assert path.exists()
        mid = read_columnar(path)
    assert len(mid) == 1
    assert writer.bytes == path.stat().st_size > 0


# ---------------------------------------------------------------------------
# JSONL writer hardening (context manager, flush, truncated tail)
# ---------------------------------------------------------------------------

def test_jsonl_read_tolerates_truncated_final_line(sim, tmp_path):
    _workload(sim)
    path = tmp_path / "crash.jsonl"
    write_run(path, sim)
    whole = read_jsonl(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-20])  # chop mid-way through the last line
    with pytest.warns(RuntimeWarning, match="truncated final line"):
        partial = read_jsonl(path)
    assert partial == whole[:-1]


def test_jsonl_read_raises_on_mid_file_corruption(sim, tmp_path):
    _workload(sim)
    path = tmp_path / "corrupt.jsonl"
    write_run(path, sim)
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:-5]  # damage a line that is *not* the last
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_jsonl(path)


def test_export_counters_recorded_at_close(sim, tmp_path):
    _workload(sim)
    write_run(tmp_path / "run.jsonl", sim, account=True)
    write_run(tmp_path / "run.npz", sim, account=True)
    counters = sim.metrics.snapshot()["counters"]
    for fmt in ("jsonl", "npz"):
        assert counters[f"telemetry.export.{fmt}.records"] > 0
        assert counters[f"telemetry.export.{fmt}.spans"] > 0
        assert counters[f"telemetry.export.{fmt}.bytes"] > 0
    # Accounting is once-per-writer even if close() is called again.
    before = counters["telemetry.export.jsonl.records"]
    assert before == len(sim.tracer.records)


# ---------------------------------------------------------------------------
# Streaming aggregation: byte-identical to replay
# ---------------------------------------------------------------------------

def _replay(sim):
    return ReplayedAggregator(user_sources=USERS).replay(sim)


def _twin_runs():
    """Two identical seeded runs: one watched live, one replayed."""
    streamed = Simulator(seed=7)
    aggregator = StreamingAggregator(user_sources=USERS).attach(streamed)
    _workload(streamed)
    replayed = Simulator(seed=7)
    _workload(replayed)
    return aggregator, streamed, _replay(replayed)


def test_streaming_summary_is_byte_identical_to_replay():
    aggregator, _streamed, replayed = _twin_runs()
    live = aggregator.summary()
    replay = replayed.summary()
    assert json.dumps(live, sort_keys=False) == \
        json.dumps(replay, sort_keys=False)
    assert list(live) == list(replay)  # key order, not just content
    assert live["issues_by_layer"]["unclassified"] == 1


def test_streaming_layer_report_is_byte_identical_to_replay():
    aggregator, _streamed, replayed = _twin_runs()
    assert layer_report(aggregator) == layer_report(replayed)


def test_streaming_layer_report_data_matches_replay():
    aggregator, _streamed, replayed = _twin_runs()
    live = layer_report_data(aggregator)
    replay = layer_report_data(replayed)
    assert json.dumps(live, sort_keys=True) == \
        json.dumps(replay, sort_keys=True)
    assert live["totals"] == {"device": 1, "user": 1}
    assert live["unclassified_issues"] == 1


def test_stream_mode_stores_nothing_but_aggregates_everything():
    streamed = Simulator(seed=7, trace_mode="stream")
    aggregator = StreamingAggregator(user_sources=USERS).attach(streamed)
    _workload(streamed)
    assert streamed.tracer.records == []
    assert streamed.tracer.spans == []
    replayed = Simulator(seed=7)
    _workload(replayed)
    live = aggregator.summary()
    replay = _replay(replayed).summary()
    assert json.dumps(live) == json.dumps(replay)


def test_stream_mode_memory_stays_flat_over_unplaceable_issues():
    """Unplaceable issues are counted, not kept: folding 10,000 of them
    in stream mode leaves the aggregator's memory where it was."""
    import tracemalloc

    sim = Simulator(seed=7, trace_mode="stream")
    aggregator = StreamingAggregator().attach(sim)
    sim.issue("???", "mystery", "unplaceable concern -1")
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        for n in range(10_000):
            sim.issue("???", "mystery", f"unplaceable concern {n}")
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert aggregator.unclassified == 10_001
    assert after - before < 64 * 1024


def test_replay_refuses_a_stream_mode_trace():
    aggregator = ReplayedAggregator(user_sources=USERS)
    with pytest.raises(ConfigurationError, match="'stream' mode"):
        aggregator.replay(_stream_run())
    assert aggregator.records_seen == aggregator.spans_begun == 0


def test_streaming_histograms_match_replay():
    aggregator, streamed, _replayed = _twin_runs()
    replay = ReplayedAggregator().replay(streamed).span_histograms()
    assert aggregator.span_histograms() == replay
    hist = aggregator.span_histograms()["transport.send"]
    assert hist["count"] == sum(hist["buckets"]) == 2
    assert hist["min"] <= hist["max"]
    # The open session.hold span is not folded by either path.
    assert "session.hold" not in aggregator.span_histograms()


def test_an_aggregator_takes_one_feed():
    """A second attach raises instead of subscribing again, which would
    count every issue and span twice."""
    sim = Simulator(seed=7)
    aggregator = StreamingAggregator(user_sources=USERS).attach(sim)
    for other in (sim, Simulator(seed=7, trace_mode="stream")):
        with pytest.raises(ConfigurationError, match="already fed"):
            aggregator.attach(other)
    _workload(sim)
    assert aggregator.issues_seen == 3
    assert (json.dumps(layer_report_data(aggregator))
            == json.dumps(layer_report_data(_replay(sim))))


def test_live_totals_count_from_attach():
    """Records and spans are the tracer's counts since attach, in stream
    mode too, where nothing is stored: nothing from before counts."""
    sim = Simulator(seed=7, trace_mode="stream")
    sim.trace("mac.tx", "adapter", "before")
    sim.span_end(sim.span_begin("transport.send", "laptop"))
    aggregator = StreamingAggregator().attach(sim)
    sim.trace("mac.tx", "adapter", "during")
    sim.issue("radio", "adapter", "multipath fade")
    with sim.span("transport.send", "laptop"):
        pass
    sim.span_begin("session.hold", "alice")
    assert (aggregator.records_seen, aggregator.issues_seen) == (2, 1)
    assert (aggregator.spans_begun, aggregator.spans_ended) == (2, 1)
    assert aggregator.spans_open == 1


def test_streaming_histogram_category_cap_overflows():
    sim = Simulator(seed=1)
    aggregator = StreamingAggregator(max_categories=2).attach(sim)
    for n in range(5):
        with sim.span(f"cat.{n}", "t"):
            pass
    hists = aggregator.span_histograms()
    assert set(hists) == {"cat.0", "cat.1", OVERFLOW_CATEGORY}
    assert hists[OVERFLOW_CATEGORY]["count"] == 3


def test_streaming_summary_requires_a_simulator():
    with pytest.raises(ValueError):
        StreamingAggregator().summary()


# ---------------------------------------------------------------------------
# Aggregation across seeds and the fork pipe
# ---------------------------------------------------------------------------

def test_aggregate_telemetry_merges_streaming_summaries():
    summaries = []
    for seed in (3, 4):
        sim = Simulator(seed=seed, trace_mode="stream")
        aggregator = StreamingAggregator(user_sources=USERS).attach(sim)
        _workload(sim)
        summaries.append(aggregator.summary())
    merged = aggregate_telemetry(summaries)
    assert merged["replicates"] == 2
    assert merged["records"] == sum(s["records"] for s in summaries)
    assert merged["issues_by_layer"]["environment"] == 2
    assert merged["issues_by_column"] == {"device": 2, "user": 2}
    assert merged["metrics"]["counters"]["mac.frames"] == 12


def _streamed_point(seed, knob):
    """A sweep run_one whose telemetry comes from a stream-mode run."""
    sim = Simulator(seed=seed, trace_mode="stream")
    aggregator = StreamingAggregator(user_sources=USERS).attach(sim)
    _workload(sim)
    return {"issues": aggregator.issues_seen,
            "telemetry": aggregator.summary()}


def test_averaged_seeds_merge_streaming_summaries():
    from repro.experiments.sweeps import averaged_over_seeds, grid, sweep

    result = sweep("X", "streamed", _streamed_point,
                   grid(knob=[1]), seeds=(0, 1))
    averaged = averaged_over_seeds(result, group_by=("knob",),
                                   metrics=("issues",))
    (merged,) = averaged.telemetry
    assert merged["replicates"] == 2
    assert merged["records"] == sum(
        entry["records"] for entry in result.telemetry)
    assert merged["issues_by_column"] == {"device": 2, "user": 2}
    assert merged["metrics"]["counters"]["mac.frames"] == 12


def test_sweep_ships_streaming_telemetry_across_fork_pipe():
    """E2 (now summarised via a StreamingAggregator) must stay identical
    between serial and parallel execution — the aggregates, not the raw
    trace, cross the pipe."""
    from repro.experiments.e2_interference import run as e2_run

    serial = e2_run(densities=(0, 1), duration=2.0,
                    channel_plans=("cochannel",))
    parallel = e2_run(densities=(0, 1), duration=2.0,
                      channel_plans=("cochannel",), workers=2)
    assert serial.rows == parallel.rows
    assert serial.telemetry == parallel.telemetry
    merged = aggregate_telemetry(serial.telemetry)
    assert merged["replicates"] == len(serial.rows)


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------

#: sha256 of ``repro.cli report --lpc --horizon 30``, as text and with
#: ``--format json``; the same under any ``PYTHONHASHSEED``.
REPORT_DIGESTS = {
    "text": "823b202092bd408a52471808d3a43230ce984d3a54a19f9f36bb066e5120b3ff",
    "json": "bc33a8cb12bc076315787cb408dfcb762c8806ad9b46f3ee5359f9650df2bd84",
}


def test_cli_report_lpc_bytes_are_pinned(capsys):
    from repro.cli import main

    for fmt, digest in REPORT_DIGESTS.items():
        assert main(["report", "--lpc", "--horizon", "30",
                     "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_cli_report_format_json_is_machine_readable(capsys):
    from repro.cli import main

    assert main(["report", "--lpc", "--horizon", "30",
                 "--format", "json"]) == 0
    first = capsys.readouterr().out
    data = json.loads(first)
    assert data["title"].startswith("LPC run report")
    assert len(data["layers"]) == 5
    assert {"device", "user"} == set(data["totals"])
    assert first == json.dumps(data, sort_keys=True, indent=2) + "\n"


def test_cli_report_format_json_requires_lpc(capsys):
    from repro.cli import main

    assert main(["report", "--format", "json"]) == 2
    assert "--lpc" in capsys.readouterr().err


def test_cli_demo_trace_columnar_export(capsys, tmp_path):
    from repro.cli import main

    out = tmp_path / "demo.npz"
    assert main(["demo", "--horizon", "20", "--trace", "mac",
                 "--trace-out", str(out)]) == 0
    assert "columnar lines" in capsys.readouterr().err
    lines = read_telemetry(out)
    assert lines
    assert all(line["category"].startswith("mac") for line in lines)
    assert {line["type"] for line in lines} <= {"record", "span"}
