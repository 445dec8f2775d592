"""Tests for the CLI and the design-review checklist generator."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.core.checklist import (
    GENERIC_QUESTIONS,
    build_checklist,
)
from repro.core.layers import RELATIONS, Layer
from repro.core.model import LPCModel, smart_projector_model


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_figures_all(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    for i in range(1, 6):
        assert f"Figure {i}" in out


def test_cli_figures_single(capsys):
    assert main(["figures", "3"]) == 0
    out = capsys.readouterr().out
    assert "resource layer" in out


def test_cli_figures_bad_number(capsys):
    assert main(["figures", "9"]) == 2
    assert "no figure 9" in capsys.readouterr().err


def test_cli_experiments_lists(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    assert "E1" in out and "E9" in out and "F1-F5" in out


def test_cli_run_experiment(capsys):
    assert main(["run", "E3-range-table"]) == 0
    out = capsys.readouterr().out
    assert "1Mbps" in out and "range_m" in out


def test_cli_run_unknown(capsys):
    assert main(["run", "E999"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_run_with_seed(capsys):
    assert main(["run", "E4-hijack", "--seed", "5"]) == 0
    assert "hijacks_succeeded" in capsys.readouterr().out


def test_cli_rejects_a_negative_seed_in_one_line(capsys):
    for command in (["run", "E2"], ["demo"]):
        assert main(command + ["--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == \
            "error: seed must be a non-negative integer, not -1\n"


def test_cli_run_lets_an_experiments_own_type_error_propagate(monkeypatch):
    from repro.experiments import harness
    from repro.experiments.harness import ExperimentResult

    seeds = []

    def zz(seed=1):
        seeds.append(seed)
        if seed != 1:
            raise TypeError("zz broke")
        return ExperimentResult("ZZ", "t", ["v"])

    monkeypatch.setitem(harness._REGISTRY, "ZZ", zz)
    with pytest.raises(TypeError, match="zz broke"):
        main(["run", "ZZ", "--seed", "5"])
    assert seeds == [5]


def test_cli_run_drops_seed_and_refuses_shards_by_signature(capsys):
    assert main(["run", "F1-F5", "--seed", "5"]) == 0
    assert main(["run", "F1-F5", "--shards", "2"]) == 2
    assert "not shard-aware" in capsys.readouterr().err


def test_cli_run_e11_rows_do_not_depend_on_shards(capsys):
    tables = []
    for shards in ("1", "2"):
        assert main(["run", "E11", "--shards", shards]) == 0
        tables.append(capsys.readouterr().out.splitlines())
    one, two = tables
    differ = [i for i, (a, b) in enumerate(zip(one, two)) if a != b]
    assert len(one) == len(two) and len(differ) == 1
    assert one[differ[0]].startswith("note: single-process x1 ")
    assert two[differ[0]].startswith("note: processes x2 ")
    assert main(["run", "E11", "--shards", "5"]) == 2
    assert "shards must be in 1..4" in capsys.readouterr().err


def test_cli_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cli_demo_trace_writes_jsonl(capsys, tmp_path):
    out = tmp_path / "demo.jsonl"
    assert main(["demo", "--horizon", "20", "--trace", "mac",
                 "--trace-out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "JSONL lines" in captured.err
    from repro.telemetry.jsonl import read_jsonl

    lines = read_jsonl(out)
    assert lines
    assert all(line["category"].startswith("mac") for line in lines)
    assert {line["type"] for line in lines} <= {"record", "span"}


def test_two_traced_demos_in_one_process_write_identical_exports(
        capsys, tmp_path):
    """Frame ids are numbered per simulator, so the trace a demo exports
    does not depend on what ran before it in the process."""
    exports = []
    for name in ("first.jsonl", "second.jsonl"):
        out = tmp_path / name
        assert main(["demo", "--horizon", "30", "--trace", "mac",
                     "--trace-out", str(out)]) == 0
        exports.append(out.read_bytes())
    capsys.readouterr()
    assert b'"tx #1 -> ' in exports[0]
    assert exports[0] == exports[1]


def test_cli_demo_trace_hooks_are_removed(capsys, tmp_path):
    """A later simulator in the same process must not inherit the hooks."""
    from repro.kernel.trace import _DEFAULT_SPAN_HOOKS, _DEFAULT_SUBSCRIBERS

    before = (len(_DEFAULT_SUBSCRIBERS), len(_DEFAULT_SPAN_HOOKS))
    assert main(["demo", "--horizon", "10", "--trace", "mac",
                 "--trace-out", str(tmp_path / "t.jsonl")]) == 0
    capsys.readouterr()
    assert (len(_DEFAULT_SUBSCRIBERS), len(_DEFAULT_SPAN_HOOKS)) == before


def test_cli_run_trace_flag(capsys, tmp_path):
    out = tmp_path / "run.jsonl"
    assert main(["run", "E4-hijack", "--seed", "5",
                 "--trace", "session", "--trace-out", str(out)]) == 0
    assert "hijacks_succeeded" in capsys.readouterr().out
    assert out.exists()


def test_cli_cache_stats_and_clear(capsys, tmp_path):
    from repro.experiments.cache import RunCache, cache_key

    cache = RunCache(tmp_path)
    cache.put(cache_key("X", "m:f", {"k": 1}, 0, src_digest="s"), {"v": 1})
    assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert str(tmp_path) in out and "entries   : 1" in out
    assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
    assert "removed 1 entries" in capsys.readouterr().out
    assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
    assert "entries   : 0" in capsys.readouterr().out


def test_cli_cache_dir_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert main(["cache", "stats"]) == 0
    assert str(tmp_path / "elsewhere") in capsys.readouterr().out


def test_cli_cache_policy_sets_and_restores_env(monkeypatch):
    """``run --cache`` / ``--no-cache`` drive the env knobs sweep()
    consults, and restore them afterwards (no leakage into the caller)."""
    import argparse
    import os

    from repro.cli import _cache_policy
    from repro.experiments.cache import CACHE_OFF_ENV, CACHE_ON_ENV, RunCache, resolve_cache

    monkeypatch.delenv(CACHE_ON_ENV, raising=False)
    monkeypatch.delenv(CACHE_OFF_ENV, raising=False)
    with _cache_policy(argparse.Namespace(cache=True, no_cache=False)):
        assert os.environ[CACHE_ON_ENV] == "1"
        assert isinstance(resolve_cache(None), RunCache)
    assert CACHE_ON_ENV not in os.environ
    with _cache_policy(argparse.Namespace(cache=True, no_cache=True)):
        assert resolve_cache(None) is None  # --no-cache wins
    assert CACHE_OFF_ENV not in os.environ


def test_cli_run_cache_env_round_trip(tmp_path, monkeypatch):
    """With the cache enabled by env, a second E2 run replays from the
    directory REPRO_CACHE_DIR points at."""
    import os

    from repro.experiments.cache import CACHE_ON_ENV
    from repro.experiments.e2_interference import run as e2_run

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv(CACHE_ON_ENV, "1")
    cold = e2_run(densities=(0,), duration=1.0)
    warm = e2_run(densities=(0,), duration=1.0)
    assert cold.rows == warm.rows
    assert warm.meta["cache"]["hit_rate"] == 1.0
    assert os.listdir(tmp_path)  # entries landed under REPRO_CACHE_DIR


def test_cli_report_lpc_deterministic(capsys):
    assert main(["report", "--lpc", "--horizon", "30"]) == 0
    first = capsys.readouterr().out
    assert main(["report", "--lpc", "--horizon", "30"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "LPC run report" in first
    # Both columns of the paper's Figure 1 grid are present.
    assert "device artifact" in first and "user artifact" in first
    for layer in Layer:
        assert layer.title in first


@pytest.mark.parametrize("horizon", ["-5", "0", "nan", "inf"])
def test_cli_rejects_a_horizon_that_is_not_finite_and_positive(
        horizon, capsys, monkeypatch):
    """``demo`` and ``report --lpc`` exit 2 with one line on stderr and
    build no room."""
    weeks = []
    monkeypatch.setattr("repro.experiments.e9_analysis._scripted_week",
                        lambda *args, **kwargs: weeks.append(kwargs))
    for command in (["demo"], ["report", "--lpc"]):
        assert main(command + ["--horizon", horizon]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--horizon must be a finite number > 0" in captured.err
    assert weeks == []


# ---------------------------------------------------------------------------
# Checklist
# ---------------------------------------------------------------------------

def test_checklist_covers_all_layers():
    checklist = build_checklist(smart_projector_model())
    for layer in Layer:
        assert checklist.section(layer)


def test_checklist_pairwise_questions_use_relations():
    checklist = build_checklist(smart_projector_model())
    paired = [item for item in checklist.items if item.entities]
    assert paired
    for item in paired:
        assert "presenter" in item.entities
        assert RELATIONS[item.layer] in item.question


def test_checklist_pairs_only_shared_layers():
    checklist = build_checklist(smart_projector_model())
    # The laptop has no intentional facet, so no presenter/laptop pair at
    # the intentional layer.
    intentional_pairs = [item for item in checklist.section(Layer.INTENTIONAL)
                         if "laptop" in item.entities]
    assert intentional_pairs == []


def test_checklist_generic_questions_present():
    checklist = build_checklist(LPCModel("bare"))
    total_generic = sum(len(qs) for qs in GENERIC_QUESTIONS.values())
    assert len(checklist.items) == total_generic  # no entities -> no pairs


def test_checklist_progress_and_findings():
    checklist = build_checklist(LPCModel("bare"))
    assert checklist.progress == 0.0
    first = checklist.items[0]
    first.resolve("tethered to the laptop")
    assert checklist.progress > 0.0
    assert checklist.findings() == [first]
    assert len(checklist.open_items()) == len(checklist.items) - 1


def test_checklist_render():
    checklist = build_checklist(smart_projector_model())
    checklist.items[0].resolve("a finding")
    text = checklist.render()
    assert "Design-review checklist" in text
    assert "[x]" in text and "[ ]" in text
    assert "finding: a finding" in text
    for layer in Layer:
        assert layer.title in text
