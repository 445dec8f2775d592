"""Golden verdicts for every bench gate — synthetic payloads, no actual
benchmarking, so these run in milliseconds inside tier-1.

Each case is one row's payload and the committed baselines it is judged
against, with the gates that must fail and the gates that must be
skipped.  The failing lists were recorded from the hand-written gate
functions that the ``repro.cli.BENCHES`` table replaced; the rows marked
*stricter* are the deliberate change — a missing payload key now fails
every gate kind.

The kernel contract pinned below is the **calibration-relative dispatch
floor**: events/sec divided by the machine-speed calibration figure must
be at least twice the committed baseline's same ratio — so host speed
cancels out of the ≥2x claim in both directions.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import BENCHES, main
from repro.experiments.bench import KERNEL_EVENTS, evaluate, ingest

ROWS = {row.name: row for row in BENCHES}

#: One payload per row that clears every gate against BASELINES.
PASSING = {
    "kernel": {"source": "in-process", "events_per_sec": 2_600_000.0,
               "events_per_sec_public_schedule": 1_560_000.0,
               "calibration_ops_per_sec": 25_000_000.0},
    "sweeps": {"rows_identical": True, "parallel_speedup": 2.5, "cpus": 8},
    "trace": {"source": "in-process", "events_per_sec_disabled": 2_600_000.0,
              "records_overhead_ratio": 0.3, "spans_overhead_ratio": 0.3},
    "scale": {"source": "in-process", "outcomes_identical": True,
              "speedup_at_max": 12.0, "culled_events_per_sec_at_max": 20_000.0},
    "cache": {"source": "in-process", "rows_identical": True,
              "warm_hit_rate": 1.0, "warm_speedup": 50.0,
              "cold_overhead_ratio": 0.01},
    "telemetry": {"source": "in-process", "summary_identical": True,
                  "stream_stored_records": 0, "stream_stored_spans": 0,
                  "size_ratio": 12.0, "write_speedup": 3.5,
                  "lines_identical": True, "stream_memory_ratio": 0.01,
                  "events_per_sec_disabled": 2_600_000.0},
    "checks": {"source": "in-process", "findings_identical": True,
               "warm_analyzed": 0, "warm_speedup": 24.0},
    "shard": {"source": "in-process", "outcomes_identical": True,
              "telemetry_identical": True, "speedup": 2.5,
              "cpus": 8, "mode": "processes",
              "oracle_deliveries_per_sec": 60_000.0},
}

#: Like-sourced committed baselines, one per baseline file.
BASELINES = {
    "kernel": {"source": "in-process", "events_per_sec": 1_000_000.0,
               "events_per_sec_public_schedule": 600_000.0,
               "calibration_ops_per_sec": 25_000_000.0},
    "scale": {"source": "in-process", "culled_events_per_sec_at_max": 18_000.0},
    "cache": {"source": "in-process", "warm_speedup": 100.0},
    "telemetry": {"source": "in-process", "size_ratio": 10.0},
    "checks": {"source": "in-process", "warm_speedup": 12.0},
    "shard": {"source": "in-process", "oracle_deliveries_per_sec": 43_000.0},
}

UNLIKE = "baseline source 'pytest-benchmark' != 'in-process'"

# (id, row, payload changes, baseline changes, failing, skipped).  A change
# of None deletes the key; a baseline change of None deletes the file.
# Failing entries are "row.key kind"; skipped ones add ": why".
CASES = [
    # -- kernel: raw 20% floors and the calibration-relative 2x floor
    ("kernel-passes", "kernel", {}, {}, [], []),
    ("kernel-at-floors", "kernel",
     {"events_per_sec": 800_000.0, "events_per_sec_public_schedule": 480_000.0,
      "calibration_ops_per_sec": 10_000_000.0}, {}, [], []),
    ("kernel-below-floors", "kernel",
     {"events_per_sec": 799_999.0, "events_per_sec_public_schedule": 479_999.0,
      "calibration_ops_per_sec": 10_000_000.0}, {},
     ["kernel.events_per_sec baseline",
      "kernel.events_per_sec_public_schedule baseline",
      "kernel.events_per_sec calibrated"], []),
    ("kernel-at-2x", "kernel", {"events_per_sec": 2_000_000.0}, {}, [], []),
    ("kernel-below-2x", "kernel", {"events_per_sec": 1_999_999.0}, {},
     ["kernel.events_per_sec calibrated"], []),
    ("kernel-public-below", "kernel",
     {"events_per_sec_public_schedule": 479_999.0}, {},
     ["kernel.events_per_sec_public_schedule baseline"], []),
    ("kernel-no-baseline", "kernel", {"events_per_sec": 100.0},
     {"kernel": None}, [],
     ["kernel.events_per_sec baseline: no baseline",
      "kernel.events_per_sec_public_schedule baseline: no baseline",
      "kernel.events_per_sec calibrated: no baseline"]),
    ("kernel-unlike-baseline", "kernel", {"events_per_sec": 100.0},
     {"kernel": {"source": "pytest-benchmark"}}, [],
     [f"kernel.events_per_sec baseline: {UNLIKE}",
      f"kernel.events_per_sec_public_schedule baseline: {UNLIKE}",
      f"kernel.events_per_sec calibrated: {UNLIKE}"]),
    ("kernel-baseline-lacks-public", "kernel",
     {"events_per_sec_public_schedule": 100.0},
     {"kernel": {"events_per_sec_public_schedule": None}}, [],
     ["kernel.events_per_sec_public_schedule baseline: "
      "baseline lacks events_per_sec_public_schedule"]),
    # stricter: the parent skipped these two tolerance floors
    ("kernel-public-missing", "kernel",
     {"events_per_sec_public_schedule": None}, {},
     ["kernel.events_per_sec_public_schedule baseline"], []),
    ("kernel-events-missing", "kernel", {"events_per_sec": None}, {},
     ["kernel.events_per_sec baseline", "kernel.events_per_sec calibrated"],
     []),
    # stricter: the parent skipped the dispatch floor
    ("kernel-calibration-missing", "kernel",
     {"calibration_ops_per_sec": None}, {},
     ["kernel.events_per_sec calibrated"], []),
    # -- sweeps: identity everywhere, speedup only with 4+ cpus
    ("sweeps-passes", "sweeps", {}, {}, [], []),
    ("sweeps-rows-differ", "sweeps", {"rows_identical": False}, {},
     ["sweeps.rows_identical true"], []),
    ("sweeps-rows-missing", "sweeps", {"rows_identical": None}, {},
     ["sweeps.rows_identical true"], []),
    ("sweeps-at-floor", "sweeps", {"parallel_speedup": 2.0, "cpus": 4}, {},
     [], []),
    ("sweeps-below-floor", "sweeps", {"parallel_speedup": 1.99, "cpus": 4},
     {}, ["sweeps.parallel_speedup min"], []),
    ("sweeps-2-cpus", "sweeps", {"parallel_speedup": 0.9, "cpus": 2}, {},
     [], ["sweeps.parallel_speedup min: cpus 2 < 4"]),
    ("sweeps-cpus-unknown", "sweeps", {"parallel_speedup": 0.9, "cpus": None},
     {}, [], ["sweeps.parallel_speedup min: cpus 1 < 4"]),
    # -- trace: disabled path against the kernel baseline, ratio floors
    ("trace-passes", "trace", {}, {}, [], []),
    ("trace-at-floors", "trace",
     {"events_per_sec_disabled": 950_000.0, "records_overhead_ratio": 0.1,
      "spans_overhead_ratio": 0.1}, {}, [], []),
    ("trace-disabled-below", "trace", {"events_per_sec_disabled": 949_999.0},
     {}, ["trace.events_per_sec_disabled baseline"], []),
    ("trace-records-below", "trace", {"records_overhead_ratio": 0.099}, {},
     ["trace.records_overhead_ratio min"], []),
    ("trace-spans-below", "trace", {"spans_overhead_ratio": 0.099}, {},
     ["trace.spans_overhead_ratio min"], []),
    ("trace-no-kernel-baseline", "trace", {"events_per_sec_disabled": 100.0},
     {"kernel": None}, [],
     ["trace.events_per_sec_disabled baseline: no baseline"]),
    ("trace-unlike-kernel-baseline", "trace",
     {"events_per_sec_disabled": 100.0},
     {"kernel": {"source": "pytest-benchmark"}}, [],
     [f"trace.events_per_sec_disabled baseline: {UNLIKE}"]),
    ("trace-kernel-baseline-lacks-figure", "trace",
     {"events_per_sec_disabled": 100.0},
     {"kernel": {"events_per_sec": None}}, [],
     ["trace.events_per_sec_disabled baseline: "
      "baseline lacks events_per_sec"]),
    # -- scale
    ("scale-passes", "scale", {}, {}, [], []),
    ("scale-outcomes-differ", "scale", {"outcomes_identical": False}, {},
     ["scale.outcomes_identical true"], []),
    ("scale-at-floors", "scale",
     {"speedup_at_max": 2.0, "culled_events_per_sec_at_max": 14_400.0}, {},
     [], []),
    ("scale-below-floors", "scale",
     {"speedup_at_max": 1.99, "culled_events_per_sec_at_max": 14_399.0}, {},
     ["scale.speedup_at_max min", "scale.culled_events_per_sec_at_max baseline"],
     []),
    ("scale-no-baseline", "scale", {"culled_events_per_sec_at_max": 1.0},
     {"scale": None}, [],
     ["scale.culled_events_per_sec_at_max baseline: no baseline"]),
    ("scale-unlike-baseline", "scale", {"culled_events_per_sec_at_max": 1.0},
     {"scale": {"source": "pytest-benchmark"}}, [],
     [f"scale.culled_events_per_sec_at_max baseline: {UNLIKE}"]),
    # -- cache
    ("cache-passes", "cache", {}, {}, [], []),
    ("cache-rows-differ", "cache", {"rows_identical": False}, {},
     ["cache.rows_identical true"], []),
    ("cache-at-limits", "cache",
     {"warm_speedup": 25.0, "cold_overhead_ratio": 0.05}, {}, [], []),
    ("cache-hit-rate-below", "cache", {"warm_hit_rate": 0.99}, {},
     ["cache.warm_hit_rate min"], []),
    ("cache-speedup-at-floor", "cache", {"warm_speedup": 5.0},
     {"cache": None}, [], ["cache.warm_speedup baseline: no baseline"]),
    ("cache-speedup-below-floor", "cache", {"warm_speedup": 4.99},
     {"cache": None}, ["cache.warm_speedup min"],
     ["cache.warm_speedup baseline: no baseline"]),
    ("cache-cold-overhead-above", "cache", {"cold_overhead_ratio": 0.0501}, {},
     ["cache.cold_overhead_ratio max"], []),
    ("cache-below-baseline", "cache", {"warm_speedup": 24.99}, {},
     ["cache.warm_speedup baseline"], []),
    ("cache-baseline-lacks-figure", "cache", {"warm_speedup": 6.0},
     {"cache": {"warm_speedup": None}}, [],
     ["cache.warm_speedup baseline: baseline lacks warm_speedup"]),
    # stricter: the parent skipped a missing cold_overhead_ratio
    ("cache-cold-overhead-missing", "cache", {"cold_overhead_ratio": None},
     {}, ["cache.cold_overhead_ratio max"], []),
    # -- telemetry
    ("telemetry-passes", "telemetry", {}, {}, [], []),
    ("telemetry-summaries-differ", "telemetry", {"summary_identical": False},
     {}, ["telemetry.summary_identical true"], []),
    ("telemetry-stored-records", "telemetry", {"stream_stored_records": 1},
     {}, ["telemetry.stream_stored_records max"], []),
    ("telemetry-stored-spans", "telemetry", {"stream_stored_spans": 3}, {},
     ["telemetry.stream_stored_spans max"], []),
    ("telemetry-stored-both", "telemetry",
     {"stream_stored_records": 2, "stream_stored_spans": 2}, {},
     ["telemetry.stream_stored_records max",
      "telemetry.stream_stored_spans max"], []),
    ("telemetry-at-floors", "telemetry",
     {"size_ratio": 3.0, "write_speedup": 2.0, "stream_memory_ratio": 0.25,
      "events_per_sec_disabled": 950_000.0}, {"telemetry": None}, [],
     ["telemetry.size_ratio baseline: no baseline"]),
    ("telemetry-below-floors", "telemetry",
     {"size_ratio": 2.99, "write_speedup": 1.99, "stream_memory_ratio": 0.2501,
      "events_per_sec_disabled": 949_999.0}, {"telemetry": None},
     ["telemetry.size_ratio min", "telemetry.write_speedup min",
      "telemetry.stream_memory_ratio max",
      "telemetry.events_per_sec_disabled baseline"],
     ["telemetry.size_ratio baseline: no baseline"]),
    ("telemetry-lines-differ", "telemetry", {"lines_identical": False}, {},
     ["telemetry.lines_identical true"], []),
    ("telemetry-memory-missing", "telemetry", {"stream_memory_ratio": None},
     {}, ["telemetry.stream_memory_ratio max"], []),
    ("telemetry-at-baseline", "telemetry", {"size_ratio": 9.0}, {}, [], []),
    ("telemetry-below-baseline", "telemetry", {"size_ratio": 8.99}, {},
     ["telemetry.size_ratio baseline"], []),
    # the committed situation: BENCH_telemetry is in-process and the
    # kernel baseline is pytest-benchmark, so the disabled path skips
    ("telemetry-unlike-kernel-baseline", "telemetry",
     {"events_per_sec_disabled": 100.0},
     {"kernel": {"source": "pytest-benchmark"}}, [],
     [f"telemetry.events_per_sec_disabled baseline: {UNLIKE}"]),
    ("telemetry-unlike-baseline", "telemetry", {"size_ratio": 4.0},
     {"telemetry": {"source": "pytest-benchmark"}}, [],
     [f"telemetry.size_ratio baseline: {UNLIKE}"]),
    # -- checks
    ("checks-passes", "checks", {}, {}, [], []),
    ("checks-findings-differ", "checks", {"findings_identical": False}, {},
     ["checks.findings_identical true"], []),
    ("checks-reparsed", "checks", {"warm_analyzed": 1}, {},
     ["checks.warm_analyzed max"], []),
    ("checks-analyzed-missing", "checks", {"warm_analyzed": None}, {},
     ["checks.warm_analyzed max"], []),
    ("checks-at-floor", "checks", {"warm_speedup": 3.0}, {"checks": None},
     [], ["checks.warm_speedup baseline: no baseline"]),
    ("checks-below-floor", "checks", {"warm_speedup": 2.99},
     {"checks": None}, ["checks.warm_speedup min"],
     ["checks.warm_speedup baseline: no baseline"]),
    ("checks-at-baseline", "checks", {"warm_speedup": 6.0}, {}, [], []),
    ("checks-below-baseline", "checks", {"warm_speedup": 5.99}, {},
     ["checks.warm_speedup baseline"], []),
    ("checks-unlike-baseline", "checks", {"warm_speedup": 5.99},
     {"checks": {"source": "pytest-benchmark"}}, [],
     [f"checks.warm_speedup baseline: {UNLIKE}"]),
    # -- shard: identities everywhere, speedup floors at 2 and at 4+ cpus
    # when forked
    ("shard-passes", "shard", {}, {}, [], []),
    ("shard-outcomes-differ", "shard", {"outcomes_identical": False}, {},
     ["shard.outcomes_identical true"], []),
    ("shard-telemetry-differs", "shard", {"telemetry_identical": False}, {},
     ["shard.telemetry_identical true"], []),
    ("shard-at-floors", "shard",
     {"speedup": 2.0, "cpus": 4, "oracle_deliveries_per_sec": 34_400.0}, {},
     [], []),
    ("shard-below-floors", "shard",
     {"speedup": 1.99, "cpus": 4, "oracle_deliveries_per_sec": 34_399.0}, {},
     ["shard.speedup min", "shard.oracle_deliveries_per_sec baseline"], []),
    ("shard-2-cpus", "shard", {"speedup": 0.5, "cpus": 2}, {},
     ["shard.speedup min"], ["shard.speedup min: cpus 2 < 4"]),
    ("shard-2-cpus-at-floor", "shard", {"speedup": 1.2, "cpus": 2}, {}, [],
     ["shard.speedup min: cpus 2 < 4"]),
    ("shard-2-cpus-below-floor", "shard", {"speedup": 1.19, "cpus": 2}, {},
     ["shard.speedup min"], ["shard.speedup min: cpus 2 < 4"]),
    ("shard-1-cpu", "shard", {"speedup": 0.5, "cpus": 1}, {}, [],
     ["shard.speedup min: cpus 1 < 2", "shard.speedup min: cpus 1 < 4"]),
    ("shard-inline", "shard", {"speedup": 0.5, "mode": "inline"}, {}, [],
     ["shard.speedup min: mode 'inline' != 'processes'",
      "shard.speedup min: mode 'inline' != 'processes'"]),
    ("shard-speedup-missing", "shard", {"speedup": None}, {},
     ["shard.speedup min", "shard.speedup min"], []),
    ("shard-unlike-baseline", "shard", {"oracle_deliveries_per_sec": 1.0},
     {"shard": {"source": "pytest-benchmark"}}, [],
     [f"shard.oracle_deliveries_per_sec baseline: {UNLIKE}"]),
]


def _changed(base, changes):
    merged = dict(base, **changes)
    return {key: value for key, value in merged.items() if value is not None}


def _verdicts(row, changes=None, baseline_changes=None):
    baselines = dict(BASELINES)
    for name, change in (baseline_changes or {}).items():
        baselines[name] = (None if change is None
                           else _changed(BASELINES[name], change))
    return evaluate(ROWS[row], _changed(PASSING[row], changes or {}),
                    baselines)


def _failing(verdicts):
    return [f"{v.gate} {v.kind}" for v in verdicts if v.status == "FAIL"]


def _skipped(verdicts):
    return [f"{v.gate} {v.kind}: {v.status[len('skipped ('):-1]}"
            for v in verdicts if v.status.startswith("skipped")]


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_golden_verdict(case):
    _id, row, changes, baseline_changes, failing, skipped = case
    verdicts = _verdicts(row, changes, baseline_changes)
    assert _failing(verdicts) == failing
    assert _skipped(verdicts) == skipped
    for verdict in verdicts:
        assert verdict.line.startswith(f"{verdict.gate} ")
        assert verdict.status in verdict.line


def test_every_gate_has_a_passing_and_a_failing_case():
    # Gates are told apart by their place in the row: the two shard
    # speedup floors share a key and a kind.
    gates = {(row.name, i) for row in BENCHES for i in range(len(row.gates))}
    assert len(gates) == 34
    failed = set()
    for _id, row, changes, baseline_changes, _failing, _skipped in CASES:
        verdicts = _verdicts(row, changes, baseline_changes)
        failed |= {(row, i) for i, verdict in enumerate(verdicts)
                   if verdict.status == "FAIL"}
    assert failed == gates
    assert {case[1] for case in CASES if not case[4]} == set(ROWS)


# ---------------------------------------------------------------------------
# The kernel row against the pre-rewrite baseline
# ---------------------------------------------------------------------------

BASELINE = BASELINES["kernel"]


def _current(events_per_sec: float, calibration: float = 25_000_000.0):
    return {
        "events_per_sec": events_per_sec,
        "events_per_sec_public_schedule": events_per_sec * 0.6,
        "calibration_ops_per_sec": calibration,
    }


def _kernel_failures(current, baseline=None):
    return _failing(_verdicts("kernel", current,
                              {"kernel": baseline} if baseline else {}))


def test_dispatch_floor_passes_at_2x():
    assert _kernel_failures(_current(2_600_000.0)) == []


def test_dispatch_floor_fails_below_2x():
    verdicts = _verdicts("kernel", _current(1_500_000.0))
    assert _failing(verdicts) == ["kernel.events_per_sec calibrated"]
    assert any(">= 2 x baseline" in v.line for v in verdicts
               if v.status == "FAIL")


def test_dispatch_floor_is_calibration_relative():
    # A 2x-slower host: raw 1.4M ev/s is under 2x the baseline's 1.0M,
    # but the host's calibration halved too — the normalised ratio is
    # 2.8x and must pass.  The raw 20% floor passes as well (1.4M > 800k).
    slow_host = _current(1_400_000.0, calibration=12_500_000.0)
    assert _kernel_failures(slow_host) == []
    # A 2x-faster host cannot hide a regressed loop: raw 2.6M clears the
    # naive 2x, but normalised it is only 1.3x.
    fast_host = _current(2_600_000.0, calibration=50_000_000.0)
    assert _kernel_failures(fast_host) == ["kernel.events_per_sec calibrated"]


def test_dispatch_floor_skips_without_calibration_figures():
    # Identity/tolerance gating still applies; the speedup floor cannot.
    verdicts = _verdicts("kernel", _current(2_600_000.0),
                         {"kernel": {"calibration_ops_per_sec": None}})
    assert _failing(verdicts) == []
    assert _skipped(verdicts) == [
        "kernel.events_per_sec calibrated: "
        "baseline lacks calibration_ops_per_sec"]


def test_gate_skips_unlike_sources():
    other = {"source": "pytest-benchmark"}
    assert _kernel_failures(_current(100.0), other) == []


def test_tolerance_floor_still_fires():
    failures = _kernel_failures(_current(700_000.0))
    assert "kernel.events_per_sec baseline" in failures


# ---------------------------------------------------------------------------
# `--raw` ingest and `repro.cli bench` inputs
# ---------------------------------------------------------------------------

def _raw_dump(path, **best):
    path.write_text(json.dumps({"benchmarks": [
        {"name": name, "stats": {"min": seconds}}
        for name, seconds in best.items()]}))
    return path


def test_ingest_takes_a_row_only_when_all_its_tests_are_present():
    kernel, trace = ROWS["kernel"], ROWS["trace"]
    in_process = {"name": "kernel", "source": "in-process",
                  "events_per_sec": 1.0, "events_per_sec_public_schedule": 2.0,
                  "calibration_ops_per_sec": 3.0}
    partial = {"test_kernel_event_throughput": 0.01}
    assert ingest(kernel, dict(in_process), partial) == in_process

    best = dict(partial, test_kernel_public_schedule_throughput=0.02,
                test_machine_calibration=0.004,
                test_trace_records_throughput=0.04,
                test_trace_spans_throughput=0.05)
    payload = ingest(kernel, dict(in_process), best)
    assert payload["source"] == "pytest-benchmark"
    assert payload["events_per_sec"] == KERNEL_EVENTS / 0.01
    assert payload["events_per_sec_public_schedule"] == KERNEL_EVENTS / 0.02
    assert payload["calibration_ops_per_sec"] == 200_000 / 0.004

    traced = ingest(trace, {"name": "trace", "source": "in-process",
                            "events_per_sec_disabled": 1.0,
                            "events_per_sec_records": 1.0,
                            "events_per_sec_spans": 1.0,
                            "records_overhead_ratio": 1.0,
                            "spans_overhead_ratio": 1.0}, best)
    assert traced["source"] == "pytest-benchmark"
    assert traced["records_overhead_ratio"] == pytest.approx(0.25)
    assert traced["spans_overhead_ratio"] == pytest.approx(0.2)


def test_kernel_only_update_baseline_writes_the_baseline(tmp_path):
    baseline = tmp_path / "baseline_kernel.json"
    assert main(["bench", "--kernel-only", "--update-baseline",
                 "--repeats", "1", "--out-dir", str(tmp_path),
                 "--baseline", str(baseline)]) == 0
    assert baseline.read_text() == (tmp_path / "BENCH_kernel.json").read_text()


@pytest.mark.parametrize("target, body", [
    ("baseline", '{"benchmarks": ['),
    ("raw", '{"benchmarks": ['),
    ("raw", '{"benchmarks": [{"name": "test_kernel_event_throughput", '
            '"stats": {"mean": 0.01}}]}'),
])
def test_bad_input_fails_before_any_bench_runs(tmp_path, capsys, target,
                                               body):
    bad = tmp_path / "bad.json"
    bad.write_text(body)
    argv = ["bench", "--kernel-only", "--repeats", "1",
            "--out-dir", str(tmp_path / "out"),
            "--baseline", str(bad if target == "baseline"
                              else tmp_path / "absent.json")]
    if target == "raw":
        argv += ["--raw", str(bad)]
    assert main(argv) == 1
    assert f"error: {bad}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
