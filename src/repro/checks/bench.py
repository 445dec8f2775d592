"""Micro-benchmark for the static pass: cold vs warm incremental runs.

Measures a full-tree ``run_checks`` cold (empty incremental cache, every
file parsed) against warm re-runs (all digests match, zero files
re-parsed, only the cheap cross-file passes execute).  The warm path is
the one developers live on — ``repro.cli check`` between edits — so the
``checks`` row of ``repro.cli.BENCHES`` keeps the incremental machinery
actually paying for itself.

Lives in the ``checks`` package (not ``experiments.bench``) because
``experiments`` and ``checks`` share layer rank 7: a sideways import
between them would itself be an LPC201 finding.  ``repro.cli`` (rank 8)
orchestrates both.
"""

from __future__ import annotations

import pathlib
import tempfile
import time
from typing import Any, Dict, Optional, Sequence

from .runner import run_checks


def bench_checks(paths: Optional[Sequence[pathlib.Path]] = None,
                 base: Optional[pathlib.Path] = None,
                 baseline: Optional[pathlib.Path] = None,
                 jobs: int = 4,
                 warm_repeats: int = 3) -> Dict[str, Any]:
    """Time cold vs warm full-tree checks; returns a BENCH payload."""
    paths = list(paths) if paths else [pathlib.Path("src")]
    with tempfile.TemporaryDirectory(prefix="repro-bench-checks-") as td:
        cache = pathlib.Path(td) / "checks_cache.json"

        start = time.perf_counter()
        cold = run_checks(paths, base=base, baseline=baseline, jobs=jobs,
                          incremental_cache=cache)
        cold_wall = time.perf_counter() - start

        warm_wall = float("inf")
        warm = cold
        warm_analyzed = 0
        for _ in range(max(1, warm_repeats)):
            start = time.perf_counter()
            warm = run_checks(paths, base=base, baseline=baseline,
                              jobs=jobs, incremental_cache=cache)
            warm_wall = min(warm_wall, time.perf_counter() - start)
            warm_analyzed = max(warm_analyzed, len(warm.analyzed))

    return {
        "name": "checks",
        "source": "in-process",
        "files": cold.files,
        "jobs": jobs,
        "cold_wall_s": round(cold_wall, 4),
        "warm_wall_s": round(warm_wall, 4),
        "warm_speedup": round(cold_wall / warm_wall, 2) if warm_wall else 0.0,
        "warm_analyzed": warm_analyzed,
        "findings_identical": cold.format_text() == warm.format_text(),
    }

