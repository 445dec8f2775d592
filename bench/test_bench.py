"""Tests of the benchmark itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# pstats keys of a synthetic two-layer program.
HARNESS = ("harness.py", 1, "main")          # unowned, no callers
A = ("kernel/a.py", 1, "a")
SORTED = ("~", 0, "<built-in method builtins.sorted>")
B = ("phys/b.py", 1, "b")
C = ("phys/c.py", 1, "c")
OWNERS = {A: "kernel", B: "phys", C: "phys"}


def synthetic_stats():
    """harness -> a; a -> sorted -> b (key function); a -> b; b -> c."""
    return {
        HARNESS: (1, 1, 0.01, 1.11, {}),
        A: (1, 1, 0.5, 1.1, {HARNESS: (1, 1, 0.5, 1.1)}),
        SORTED: (2, 2, 0.3, 0.45, {A: (2, 2, 0.3, 0.45)}),
        B: (5, 5, 0.2, 0.3, {SORTED: (4, 4, 0.15, 0.15),
                             A: (1, 1, 0.05, 0.15)}),
        C: (3, 3, 0.1, 0.1, {B: (3, 3, 0.1, 0.1)}),
    }


def test_builtin_self_time_is_charged_to_its_caller():
    self_s, calls_in, unattributed = layers.attribute(synthetic_stats(),
                                                      OWNERS.get)
    assert self_s["kernel"] == pytest.approx(0.5 + 0.3)
    assert self_s["phys"] == pytest.approx(0.2 + 0.1)
    assert unattributed == pytest.approx(0.01)


def test_calls_in_counts_only_cross_layer_edges():
    _, calls_in, _ = layers.attribute(synthetic_stats(), OWNERS.get)
    # 4 calls through sorted() plus 1 direct; b -> c stays inside phys and
    # the harness owns no layer.
    assert calls_in == {"phys": 5}


def test_shares_sum_to_one():
    metrics = layers.layer_metrics(synthetic_stats(), OWNERS.get)
    shares = [metrics[f"{layer}.share"] for layer in layers.LAYERS]
    assert sum(shares) == pytest.approx(1.0)
    assert metrics["kernel.share"] == pytest.approx(0.8 / 1.1)


def test_unowned_time_climbs_to_callers_by_edge_weight():
    numpy_fn = ("numpy/core.py", 9, "dot")
    stats = {
        A: (1, 1, 0.0, 1.0, {}),
        B: (1, 1, 0.0, 1.0, {}),
        SORTED: (4, 4, 0.0, 0.8, {A: (1, 1, 0.0, 0.6), B: (3, 3, 0.0, 0.2)}),
        numpy_fn: (4, 4, 0.8, 0.8, {SORTED: (4, 4, 0.8, 0.8)}),
    }
    self_s, _, _ = layers.attribute(stats, OWNERS.get)
    assert self_s["kernel"] == pytest.approx(0.6)
    assert self_s["phys"] == pytest.approx(0.2)


def test_schedule_counts_rounds():
    assert list(run.schedule(repeats=3, seconds=None)) == [0, 1, 2]
    assert list(run.schedule(repeats=5, seconds=0.0)) == [0]


def test_compare_verdicts(tmp_path, capsys):
    def report(median, q1, q3):
        point = {"median": median, "q1": q1, "q3": q3, "n": 5}
        return {"workloads": {"w": {"end_to_end": {
            m["name"]: dict(point) for m in SPEC["end_to_end"]}}}}

    base = tmp_path / "a.json"
    base.write_text(json.dumps(report(1.0, 0.99, 1.01)))
    slower = tmp_path / "b.json"
    slower.write_text(json.dumps(report(1.5, 1.49, 1.51)))
    assert run.compare(str(base), str(slower)) == 1
    assert "regression" in capsys.readouterr().out
    noisy = tmp_path / "c.json"
    noisy.write_text(json.dumps(report(1.0, 0.5, 1.5)))
    assert run.compare(str(noisy), str(slower)) == 0
    assert "unresolved" in capsys.readouterr().out


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    assert all(run.END_TO_END_UNITS[m["name"]] == m["unit"]
               for m in SPEC["end_to_end"])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        layers.PER_LAYER_UNITS


def test_smoke_run_emits_every_metric_with_its_unit(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--repeats", "1",
         "--out", str(out)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    report = json.loads(out.read_text())["workloads"]
    assert list(report) == list(run.WORKLOADS)
    for workload, summary in report.items():
        for metric in SPEC["end_to_end"]:
            assert summary["end_to_end"][metric["name"]]["unit"] == \
                metric["unit"], (workload, metric)
        for metric in SPEC["per_layer"]:
            assert summary["per_layer"][metric["name"]]["unit"] == \
                metric["unit"], (workload, metric)
            assert f"{workload}.{metric['name']}" in line["metrics"]
        shares = sum(summary["per_layer"][f"{layer}.share"]["value"]
                     for layer in layers.LAYERS)
        assert shares == pytest.approx(1.0, abs=0.01)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "e2_density",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
