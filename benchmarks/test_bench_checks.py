"""Static pass cold vs warm: the incremental cache must keep paying.

``bench_checks`` runs the full-tree ``repro.cli check`` once cold (every
file parsed, the fork pool fanned out) and repeatedly warm (all source
digests match, zero files re-parsed, only the cheap cross-file layer and
flow passes execute).  Findings must be byte-identical between the two,
an unchanged tree must re-parse nothing, and the warm path must clear
the machine-independent speedup floor (the ``checks`` row of
``repro.cli.BENCHES``, which ``repro.cli bench`` also holds against
``baseline_checks.json``).
"""

from __future__ import annotations

from repro.checks.bench import bench_checks
from repro.cli import BENCHES
from repro.experiments.bench import evaluate
from repro.experiments.harness import ExperimentResult

CHECKS = next(row for row in BENCHES if row.name == "checks")


def test_checks_cold_vs_warm(benchmark, record_table):
    checks = benchmark.pedantic(bench_checks, iterations=1, rounds=1)
    result = ExperimentResult(
        "BENCH-checks",
        "static pass: cold full parse vs warm incremental re-run",
        ["mode", "files", "jobs", "wall_s", "reparsed"])
    result.add_row(mode="cold", files=checks["files"], jobs=checks["jobs"],
                   wall_s=checks["cold_wall_s"], reparsed=checks["files"])
    result.add_row(mode="warm", files=checks["files"], jobs=checks["jobs"],
                   wall_s=checks["warm_wall_s"],
                   reparsed=checks["warm_analyzed"])
    verdicts = evaluate(CHECKS, checks, {})
    result.notes.extend(verdict.line for verdict in verdicts)
    record_table(result)
    # The full gate (identity + zero re-parses + speedup floor) is
    # machine-independent apart from the baseline fraction, which only
    # applies when a like-sourced baseline is passed; here it is not.
    assert [v.line for v in verdicts if v.status == "FAIL"] == []
