"""Incremental sweeps: the same E2 sweep uncached, cold and warm.

*Uncached* runs with ``cache=False``; *cold* caches into an empty
directory (computes and stores); *warm* replays every row from that
directory.  Rows, columns and telemetry must be byte-identical across the
three modes (the cache may only be faster, never different), a warm
re-run must replay every point, replay must stay far ahead of computing,
and key hashing, the source digest and entry writes must not tax cold
sweeps.
"""

from __future__ import annotations

import pathlib
import statistics
import tempfile
import time
from typing import Any, Dict

from repro.experiments.cache import RunCache, source_digest
from repro.experiments.e2_interference import run as e2_run
from repro.experiments.harness import ExperimentResult

#: The E2 sweep: 3 densities x 2 channel plans of 10 simulated seconds.
SWEEP = dict(densities=(0, 2, 4), duration=10.0)

#: Rounds per mode.  Each round times one uncached and one cold sweep,
#: alternating which runs first, so a host-load phase lands on both
#: modes of a round.  The cold overhead is the median over rounds of
#: each round's cold / uncached - 1: a ratio of two best-of-N walls
#: read -31.4% to +6.3% over ten fresh processes, because the best
#: round is a rare fast one that either mode may catch.
REPEATS = 9

#: Uncached over warm wall time: 0.25 x 281.65, the speedup recorded when
#: the floor was set.  Warm runs take milliseconds, so their relative
#: timing noise is large; recorded runs read 280-390x.
WARM_SPEEDUP_FLOOR = 0.25 * 281.65

#: Cold over uncached wall time, minus one.
COLD_OVERHEAD_CEILING = 0.05


def _timed(fn, **kwargs):
    t0 = time.perf_counter()
    result = fn(**kwargs)
    return result, time.perf_counter() - t0


def bench_cache() -> Dict[str, Any]:
    """Uncached, cold and warm walls of one sweep (best of ``REPEATS``)
    and the median per-round cold overhead."""
    # The source digest is memoized process-wide (one hash per session);
    # prewarm it so the cold figure measures steady-state caching cost.
    source_digest()
    uncached_wall = cold_wall = warm_wall = float("inf")
    overheads = []
    with tempfile.TemporaryDirectory() as tmp:
        for attempt in range(REPEATS):
            cache = RunCache(pathlib.Path(tmp) / f"round-{attempt}")
            if attempt % 2:
                cold, cold_s = _timed(e2_run, cache=cache, **SWEEP)
                uncached, uncached_s = _timed(e2_run, cache=False, **SWEEP)
            else:
                uncached, uncached_s = _timed(e2_run, cache=False, **SWEEP)
                cold, cold_s = _timed(e2_run, cache=cache, **SWEEP)
            overheads.append(cold_s / uncached_s - 1.0)
            uncached_wall = min(uncached_wall, uncached_s)
            cold_wall = min(cold_wall, cold_s)

        # Warm replay against the last round's populated cache.
        for _ in range(REPEATS):
            warm, warm_s = _timed(e2_run, cache=cache, **SWEEP)
            warm_wall = min(warm_wall, warm_s)

    return {
        "points": len(uncached.rows),
        "uncached_wall_s": uncached_wall,
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "warm_speedup": uncached_wall / warm_wall,
        "cold_overhead_ratio": statistics.median(overheads),
        "warm_hit_rate": warm.meta["cache"]["hit_rate"],
        "rows_identical": (
            uncached.rows == cold.rows == warm.rows
            and uncached.columns == cold.columns == warm.columns
            and uncached.telemetry == cold.telemetry == warm.telemetry),
    }


def test_cache_uncached_vs_cold_vs_warm(benchmark, record_table):
    cache = benchmark.pedantic(bench_cache, iterations=1, rounds=1)
    result = ExperimentResult(
        "BENCH-cache", "E2 sweep through the run cache: uncached, cold, warm",
        ["mode", "points", "wall_s"])
    for mode in ("uncached", "cold", "warm"):
        result.add_row(mode=mode, points=cache["points"],
                       wall_s=cache[f"{mode}_wall_s"])
    result.notes.append(
        f"warm {cache['warm_speedup']:.0f}x faster (floor "
        f"{WARM_SPEEDUP_FLOOR:.1f}x), cold overhead "
        f"{cache['cold_overhead_ratio']:+.1%} (ceiling "
        f"{COLD_OVERHEAD_CEILING:.0%}), warm hit rate "
        f"{cache['warm_hit_rate']:.0%}, rows identical: "
        f"{cache['rows_identical']}")
    record_table(result)
    assert cache["rows_identical"]
    assert cache["warm_hit_rate"] == 1.0
    assert cache["warm_speedup"] >= WARM_SPEEDUP_FLOOR
    assert cache["cold_overhead_ratio"] <= COLD_OVERHEAD_CEILING
