"""Runner, baseline workflow, and ``repro.cli check`` behaviour."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.checks import (
    Suppression,
    apply_baseline,
    check_source,
    load_baseline,
    run_checks,
    runner,
    write_baseline,
)
from repro.cli import main
from repro.kernel.errors import ConfigurationError


def _write_tree(tmp_path: pathlib.Path) -> pathlib.Path:
    """A small mixed tree: one dirty file, one clean, one upward import."""
    pkg = tmp_path / "repro"
    (pkg / "kernel").mkdir(parents=True)
    (pkg / "env").mkdir()
    (pkg / "kernel" / "clock.py").write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n")
    (pkg / "env" / "clean.py").write_text(
        "from repro.kernel.clock import stamp\n")
    (pkg / "kernel" / "upward.py").write_text(
        "from repro.env.clean import stamp\n")
    return tmp_path


# ---------------------------------------------------------------------------
# Runner basics
# ---------------------------------------------------------------------------
def test_runner_reports_sorted_findings_and_counts(tmp_path):
    root = _write_tree(tmp_path)
    report = run_checks([root], base=root)
    assert [f.code for f in report.findings] == ["LPC101", "LPC201"]
    assert report.files == 3
    assert not report.clean
    # Paths are relative to base and posix-style for baseline stability.
    assert report.findings[0].path == "repro/kernel/clock.py"


def test_parallel_and_serial_runs_are_identical(tmp_path):
    root = _write_tree(tmp_path)
    serial = run_checks([root], base=root, jobs=1)
    parallel = run_checks([root], base=root, jobs=4)
    assert serial.findings == parallel.findings
    assert serial.graph == parallel.graph


def test_runner_flags_unparseable_files(tmp_path):
    (tmp_path / "broken.py").write_text("def nope(:\n")
    report = run_checks([tmp_path], base=tmp_path)
    assert [f.code for f in report.findings] == ["LPC001"]


def test_runner_accepts_single_files_and_dedupes(tmp_path):
    root = _write_tree(tmp_path)
    target = root / "repro" / "kernel" / "clock.py"
    report = run_checks([target, target], base=root)
    assert [f.code for f in report.findings] == ["LPC101"]
    assert report.files == 1


def test_json_report_is_machine_readable(tmp_path):
    root = _write_tree(tmp_path)
    payload = json.loads(run_checks([root], base=root).to_json())
    assert payload["files"] == 3
    codes = [f["code"] for f in payload["findings"]]
    assert codes == ["LPC101", "LPC201"]
    assert payload["import_graph"]["kernel"] == ["env"]
    assert "LPC104" in payload["rules"]


# ---------------------------------------------------------------------------
# Parallel byte-identity
# ---------------------------------------------------------------------------
def _flow_tree(tmp_path: pathlib.Path) -> pathlib.Path:
    """A tree with flow findings and a lazy-import call-graph cycle."""
    pkg = tmp_path / "repro"
    (pkg / "kernel").mkdir(parents=True)
    (pkg / "services").mkdir()
    (pkg / "env").mkdir()
    (pkg / "cli.py").write_text("from repro.services import alpha\n")
    (pkg / "services" / "alpha.py").write_text(
        "from ..kernel import beta\n"
        "CACHE = {}\n"
        "def put(k, v):\n"
        "    CACHE[k] = v\n"
        "def look(k):\n"
        "    return CACHE.get(k)\n")
    (pkg / "kernel" / "beta.py").write_text(
        "def late():\n"
        "    from ..services import alpha\n"
        "    return alpha\n")
    (pkg / "env" / "delta.py").write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n")
    return tmp_path


def test_jobs_byte_identity_with_flow_rules(tmp_path):
    root = _flow_tree(tmp_path)
    texts = {run_checks([root], base=root, jobs=jobs).format_text()
             for jobs in (1, 2, 4)}
    assert len(texts) == 1
    report = run_checks([root], base=root, jobs=1)
    codes = {f.code for f in report.findings}
    assert {"LPC301", "LPC302", "LPC101", "LPC203"} <= codes


def test_pool_size_follows_usable_cpus(tmp_path, monkeypatch):
    root = _flow_tree(tmp_path)
    sizes = []
    real = runner.ProcessPoolExecutor

    def recording(max_workers, **kwargs):
        sizes.append(max_workers)
        return real(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", recording)
    texts = set()
    for cpus in (1, 3):
        monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
        texts.add(run_checks([root], base=root).format_text())
    assert sizes == [3]          # one usable cpu runs serially
    assert len(texts) == 1


def test_json_report_carries_timings_and_cache_counters(tmp_path):
    """The JSON report times every phase and flow rule, and counts no
    cache hits: every run parses every file."""
    root = _flow_tree(tmp_path)
    payload = json.loads(run_checks([root], base=root).to_json())
    assert "analyzed" not in payload and "cached" not in payload
    assert set(payload["timings"]["rules"]) == {
        "LPC301", "LPC302", "LPC303", "LPC304"}
    for phase in ("discover", "analyze", "layers", "flow", "baseline"):
        assert payload["timings"]["phases"][phase] >= 0


# ---------------------------------------------------------------------------
# Baseline workflow
# ---------------------------------------------------------------------------
def _baseline(tmp_path, entries) -> pathlib.Path:
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 1, "suppressions": entries}))
    return path


def test_baseline_suppresses_with_justification(tmp_path):
    root = _write_tree(tmp_path)
    baseline = _baseline(tmp_path, [
        {"code": "LPC101", "path": "repro/kernel/clock.py",
         "justification": "host timestamp for log files only"},
        {"code": "LPC201", "path": "repro/kernel/upward.py",
         "justification": "transitional shim removed in the next PR"},
    ])
    report = run_checks([root], base=root, baseline=baseline)
    assert report.clean
    assert [f.code for f in report.suppressed] == ["LPC101", "LPC201"]


def test_baseline_rejects_missing_or_todo_justification(tmp_path):
    for bad in ("", "   ", "TODO", "todo: justify later"):
        path = _baseline(tmp_path, [
            {"code": "LPC101", "path": "x.py", "justification": bad}])
        with pytest.raises(ConfigurationError):
            load_baseline(path)


def test_baseline_rejects_unknown_codes_and_bad_json(tmp_path):
    path = _baseline(tmp_path, [
        {"code": "LPC999", "path": "x.py", "justification": "because"}])
    with pytest.raises(ConfigurationError):
        load_baseline(path)
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    with pytest.raises(ConfigurationError):
        load_baseline(garbage)


def test_stale_baseline_entries_surface_as_lpc002(tmp_path):
    root = _write_tree(tmp_path)
    baseline = _baseline(tmp_path, [
        {"code": "LPC101", "path": "repro/kernel/clock.py",
         "justification": "host timestamp for log files only"},
        {"code": "LPC105", "path": "repro/env/clean.py",
         "justification": "does not exist any more"},
    ])
    report = run_checks([root], base=root, baseline=baseline)
    codes = [f.code for f in report.findings]
    assert "LPC002" in codes          # the stale entry
    assert "LPC201" in codes          # never suppressed
    assert "LPC101" not in codes      # suppressed


def test_line_pinned_suppression_only_matches_that_line():
    findings = check_source(
        "m.py", "import time\na = time.time()\nb = time.time()\n")
    pinned = Suppression(code="LPC101", path="m.py",
                         justification="one-off", line=2)
    kept, suppressed, stale = apply_baseline(findings, [pinned])
    assert [f.line for f in suppressed] == [2]
    assert [f.line for f in kept] == [3]
    assert stale == []


def test_write_baseline_roundtrip_requires_editing(tmp_path):
    root = _write_tree(tmp_path)
    report = run_checks([root], base=root)
    out = tmp_path / "draft.json"
    assert write_baseline(report.findings, out) == 2
    # The template's empty justifications are rejected until filled in.
    with pytest.raises(ConfigurationError):
        load_baseline(out)
    data = json.loads(out.read_text())
    for entry in data["suppressions"]:
        entry["justification"] = "reviewed: acceptable here"
    out.write_text(json.dumps(data))
    assert len(load_baseline(out)) == 2


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------
def test_cli_check_exit_codes(tmp_path, capsys, monkeypatch):
    root = _write_tree(tmp_path)
    monkeypatch.chdir(root)
    assert main(["check", "repro/env"]) == 0
    assert main(["check", "repro"]) == 1
    out = capsys.readouterr().out
    assert "LPC101" in out and "LPC201" in out


def test_cli_check_json_format(tmp_path, capsys, monkeypatch):
    root = _write_tree(tmp_path)
    monkeypatch.chdir(root)
    assert main(["check", "repro", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [f["code"] for f in payload["findings"]] == ["LPC101", "LPC201"]


def test_cli_check_uses_baseline_when_present(tmp_path, capsys, monkeypatch):
    root = _write_tree(tmp_path)
    _baseline(root, [
        {"code": "LPC101", "path": "repro/kernel/clock.py",
         "justification": "host timestamp for log files only"},
        {"code": "LPC201", "path": "repro/kernel/upward.py",
         "justification": "transitional shim removed in the next PR"},
    ])
    monkeypatch.chdir(root)
    assert main(["check", "repro", "--baseline", "baseline.json"]) == 0
    assert "2 suppressed" in capsys.readouterr().out


def test_cli_check_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("LPC101", "LPC104", "LPC201", "LPC203"):
        assert code in out


def test_cli_check_write_baseline(tmp_path, capsys, monkeypatch):
    root = _write_tree(tmp_path)
    monkeypatch.chdir(root)
    assert main(["check", "repro", "--write-baseline", "draft.json"]) == 0
    assert (root / "draft.json").exists()
    assert "fill in justifications" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--jobs=1", "--incremental",
                                  "--incremental-cache=cache.json"])
def test_cli_check_takes_no_run_mode_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_check_missing_path_errors(capsys):
    assert main(["check", "does-not-exist-anywhere"]) == 2
    assert "no such path" in capsys.readouterr().err
