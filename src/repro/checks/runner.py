"""Run the full static pass over a file tree, in parallel.

Per-file work (parse + determinism visitor + import extraction + flow
summary) fans out over a fork-based process pool — the same strategy as
the parallel sweep runner — and the cross-file passes (layer check over
the aggregated import edges, fork-safety flow rules over the module call
graph) run afterwards.  Findings are sorted ``(path, line, col, code)``
so serial and parallel runs produce byte-identical reports.  Every run
parses every file.
"""

from __future__ import annotations

import ast
import json
import multiprocessing
import os
import pathlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .baseline import Suppression, apply_baseline, load_baseline
from .callgraph import (
    DEFAULT_FORK_ENTRY_POINTS,
    ModuleSummary,
    summarize_module,
)
from .determinism import check_determinism
from .findings import RULES, Finding
from .flow import run_flow
from .layers import ModuleImports, check_layers, extract_imports, import_graph


@dataclass
class CheckReport:
    """Aggregated result of one static pass."""

    findings: List[Finding]              # unsuppressed (includes stale)
    suppressed: List[Finding] = field(default_factory=list)
    files: int = 0
    graph: Dict[str, List[str]] = field(default_factory=dict)
    # Host-time instrumentation (perf_counter seconds): phase totals
    # under "phases", per-flow-rule splits under "rules".  Reported only
    # in to_json() — the text format carries no timings, so its output
    # stays byte-identical across machines.
    timings: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.findings

    def format_text(self) -> str:
        lines = [finding.format() for finding in self.findings]
        lines.append(f"checked {self.files} files: "
                     f"{len(self.findings)} finding(s), "
                     f"{len(self.suppressed)} suppressed")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "version": 1,
            "files": self.files,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "import_graph": self.graph,
            "timings": {
                phase: {name: round(seconds, 6)
                        for name, seconds in sorted(values.items())}
                for phase, values in sorted(self.timings.items())
            },
            "rules": {code: rule.title for code, rule in sorted(RULES.items())},
        }, indent=2)


def discover_files(paths: Sequence[pathlib.Path]) -> List[pathlib.Path]:
    """All ``*.py`` files under ``paths`` (files pass through), sorted."""
    out = []
    for path in paths:
        if path.is_dir():
            out.extend(p for p in path.rglob("*.py"))
        elif path.suffix == ".py":
            out.append(path)
    return sorted(set(out))


def _repro_rel_parts(path: pathlib.Path) -> Optional[Tuple[str, ...]]:
    """Path parts relative to the innermost ``repro`` package dir.

    Files outside a ``repro`` tree get no layer identity (determinism
    rules still apply to them).
    """
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return tuple(parts[i + 1:])
    return None


def _display_path(path: pathlib.Path, base: Optional[pathlib.Path]) -> str:
    if base is not None:
        try:
            return path.resolve().relative_to(base.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


@dataclass
class FileResult:
    """Everything one file contributes to the pass (picklable)."""

    findings: List[Finding] = field(default_factory=list)
    module: Optional[ModuleImports] = None
    summary: Optional[ModuleSummary] = None


def analyze_file(path_base: Tuple[str, Optional[str]]) -> FileResult:
    """Parse one file: determinism findings + imports + flow summary."""
    path = pathlib.Path(path_base[0])
    base = pathlib.Path(path_base[1]) if path_base[1] else None
    display = _display_path(path, base)
    result = FileResult()
    try:
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        rule = RULES["LPC001"]
        result.findings = [Finding(path=display, line=exc.lineno or 1,
                                   col=exc.offset or 0, code="LPC001",
                                   message=f"file does not parse: {exc.msg}",
                                   severity=rule.severity, hint=rule.hint)]
        return result
    except OSError as exc:
        rule = RULES["LPC001"]
        result.findings = [Finding(path=display, line=1, col=0,
                                   code="LPC001",
                                   message=f"file is unreadable: {exc}",
                                   severity=rule.severity, hint=rule.hint)]
        return result
    result.findings = check_determinism(display, tree)
    rel_parts = _repro_rel_parts(path)
    if rel_parts:
        result.module = extract_imports(display, rel_parts, tree)
        result.summary = summarize_module(display, rel_parts, tree)
    return result


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_checks(paths: Sequence[pathlib.Path],
               base: Optional[pathlib.Path] = None,
               baseline: Optional[pathlib.Path] = None,
               jobs: Optional[int] = None,
               layer_map: Optional[Dict[str, int]] = None,
               entry_points: Sequence[str] = DEFAULT_FORK_ENTRY_POINTS,
               ) -> CheckReport:
    """The full static pass: determinism + layers + flow + baseline.

    ``base`` anchors finding paths (default: the current directory), so
    the baseline file stays valid wherever the runner is invoked from.
    The per-file phase forks a pool of ``jobs`` processes (default: one
    per usable cpu) when that is more than one and the platform supports
    fork; results are identical to the serial path.
    """
    base = base if base is not None else pathlib.Path.cwd()
    jobs = _usable_cpus() if jobs is None else jobs
    timings: Dict[str, Dict[str, float]] = {"phases": {}, "rules": {}}

    start = time.perf_counter()
    files = discover_files(paths)
    work = [(str(path), str(base)) for path in files]
    timings["phases"]["discover"] = time.perf_counter() - start

    start = time.perf_counter()
    results: List[FileResult]
    if (jobs > 1 and len(work) > 1
            and "fork" in multiprocessing.get_all_start_methods()):
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=jobs,
                                 mp_context=context) as pool:
            results = list(pool.map(analyze_file, work, chunksize=8))
    else:
        results = [analyze_file(item) for item in work]
    timings["phases"]["analyze"] = time.perf_counter() - start

    findings: List[Finding] = []
    modules: List[ModuleImports] = []
    summaries: Dict[str, ModuleSummary] = {}
    for result in results:
        findings.extend(result.findings)
        if result.module is not None:
            modules.append(result.module)
        if result.summary is not None:
            summaries[result.summary.module] = result.summary

    start = time.perf_counter()
    findings.extend(check_layers(modules, layer_map))
    timings["phases"]["layers"] = time.perf_counter() - start

    start = time.perf_counter()
    flow_findings, _graph, _reached, rule_timings = run_flow(
        summaries, entry_points)
    findings.extend(flow_findings)
    timings["phases"]["flow"] = time.perf_counter() - start
    timings["rules"].update(rule_timings)

    findings.sort()

    start = time.perf_counter()
    suppressions: List[Suppression] = []
    if baseline is not None and baseline.exists():
        suppressions = load_baseline(baseline)
    kept, suppressed, stale_entries = apply_baseline(findings, suppressions)
    kept.extend(stale_entries)
    kept.sort()
    timings["phases"]["baseline"] = time.perf_counter() - start

    return CheckReport(findings=kept, suppressed=suppressed,
                       files=len(files), graph=import_graph(modules),
                       timings=timings)
