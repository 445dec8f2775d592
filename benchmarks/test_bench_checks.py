"""Static pass cold vs warm: the incremental cache must keep paying.

The full-tree ``repro.cli check`` runs once cold (every file parsed, the
fork pool fanned out) and repeatedly warm (all source digests match, zero
files re-parsed, only the cheap cross-file layer and flow passes
execute).  Findings must be byte-identical between the two, an unchanged
tree must re-parse nothing, and the warm path must stay well ahead of the
cold one: ``repro.cli check`` between edits is the path developers live
on.
"""

from __future__ import annotations

import pathlib
import tempfile
import time
from typing import Any, Dict

from repro.checks.runner import run_checks
from repro.experiments.harness import ExperimentResult

#: Analysis processes, as ``repro.cli check`` defaults to.
JOBS = 4

#: Warm runs; the best one is timed.
WARM_REPEATS = 3

#: Cold over best warm wall time: 0.5 x 12.0, the speedup recorded when
#: the floor was set (15-71x in later runs, depending on host load).
WARM_SPEEDUP_FLOOR = 0.5 * 12.0


def bench_checks() -> Dict[str, Any]:
    """Time a cold full-tree check against warm incremental re-runs."""
    paths = [pathlib.Path("src")]
    with tempfile.TemporaryDirectory(prefix="repro-bench-checks-") as td:
        cache = pathlib.Path(td) / "checks_cache.json"

        start = time.perf_counter()
        cold = run_checks(paths, jobs=JOBS, incremental_cache=cache)
        cold_wall = time.perf_counter() - start

        warm_wall = float("inf")
        warm_analyzed = 0
        for _ in range(WARM_REPEATS):
            start = time.perf_counter()
            warm = run_checks(paths, jobs=JOBS, incremental_cache=cache)
            warm_wall = min(warm_wall, time.perf_counter() - start)
            warm_analyzed = max(warm_analyzed, len(warm.analyzed))

    return {
        "files": cold.files,
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "warm_speedup": cold_wall / warm_wall,
        "warm_analyzed": warm_analyzed,
        "findings_identical": cold.format_text() == warm.format_text(),
    }


def test_checks_cold_vs_warm(benchmark, record_table):
    checks = benchmark.pedantic(bench_checks, iterations=1, rounds=1)
    result = ExperimentResult(
        "BENCH-checks",
        "static pass: cold full parse vs warm incremental re-run",
        ["mode", "files", "jobs", "wall_s", "reparsed"])
    result.add_row(mode="cold", files=checks["files"], jobs=JOBS,
                   wall_s=checks["cold_wall_s"], reparsed=checks["files"])
    result.add_row(mode="warm", files=checks["files"], jobs=JOBS,
                   wall_s=checks["warm_wall_s"],
                   reparsed=checks["warm_analyzed"])
    result.notes.append(
        f"warm speedup {checks['warm_speedup']:.1f}x (floor "
        f"{WARM_SPEEDUP_FLOOR:g}x), findings identical: "
        f"{checks['findings_identical']}")
    record_table(result)
    assert checks["findings_identical"]
    assert checks["warm_analyzed"] == 0
    assert checks["warm_speedup"] >= WARM_SPEEDUP_FLOOR
