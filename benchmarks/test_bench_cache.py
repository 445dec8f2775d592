"""Incremental sweeps: the same E2 sweep uncached, cold and warm.

*Uncached* runs with ``cache=False``; *cold* caches into an empty
directory (computes and stores); *warm* replays every row from that
directory.  Rows, columns and telemetry must be byte-identical across the
three modes (the cache may only be faster, never different), a warm
re-run must replay every point, replay must stay far ahead of computing,
and key hashing, the source digest, entry reads and entry writes must
not tax cold sweeps.
"""

from __future__ import annotations

import pathlib
import statistics
import tempfile
import time
from typing import Any, Dict

from repro.experiments import sweeps
from repro.experiments.cache import RunCache, source_digest
from repro.experiments.e2_interference import run as e2_run
from repro.experiments.harness import ExperimentResult

#: The E2 sweep: 3 densities x 2 channel plans of 10 simulated seconds.
SWEEP = dict(densities=(0, 2, 4), duration=10.0)

#: Rounds per mode.  Each round times one uncached and one cold sweep,
#: alternating which runs first, so a host-load phase lands on both
#: modes of a round.
REPEATS = 9

#: The cache calls a cold sweep makes through ``repro.experiments.sweeps``;
#: with ``RunCache.get`` and ``RunCache.put`` they are what caching adds
#: to a cold sweep, bar a few counter reads.
SWEEP_CACHE_CALLS = ("cache_key", "run_one_identity", "source_digest")

#: Uncached over warm wall time: 0.25 x 281.65, the speedup recorded when
#: the floor was set.  Warm runs take milliseconds, so their relative
#: timing noise is large; recorded runs read 280-390x.
WARM_SPEEDUP_FLOOR = 0.25 * 281.65

#: Ceiling on the cache calls' share of a cold sweep: their wall time
#: over the rest of the sweep, timed inside each cold sweep (median over
#: rounds).  Over ten fresh processes on a 2-cpu host it read 1.56% to
#: 2.21%.  Comparing a cold sweep's wall with an uncached one's measures
#: the host as well: the median over rounds of each round's
#: cold / uncached - 1 read -3.3% to +6.9% in the same processes.
COLD_OVERHEAD_CEILING = 0.05


class _Stopwatch:
    """Sums the wall time spent inside the callables it wraps."""

    def __init__(self) -> None:
        self.total = 0.0

    def wrap(self, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.total += time.perf_counter() - start
        return timed


class _TimedCache(RunCache):
    """A run cache whose entry reads and writes run on a stopwatch."""

    def __init__(self, directory: pathlib.Path, watch: _Stopwatch) -> None:
        super().__init__(directory)
        self._watch = watch

    def get(self, key):
        return self._watch.wrap(super().get)(key)

    def put(self, key, row, telemetry=None):
        return self._watch.wrap(super().put)(key, row, telemetry)


def _timed(fn, **kwargs):
    t0 = time.perf_counter()
    result = fn(**kwargs)
    return result, time.perf_counter() - t0


def bench_cache(monkeypatch) -> Dict[str, Any]:
    """Uncached, cold and warm walls of one sweep (best of ``REPEATS``),
    the median share of each cold sweep spent in cache calls, and the
    median per-round cold / uncached - 1."""
    # The source digest is memoized process-wide (one hash per session);
    # prewarm it so the cold figure measures steady-state caching cost.
    source_digest()
    watch = _Stopwatch()
    for name in SWEEP_CACHE_CALLS:
        monkeypatch.setattr(sweeps, name, watch.wrap(getattr(sweeps, name)))
    uncached_wall = cold_wall = warm_wall = float("inf")
    shares = []
    overheads = []
    with tempfile.TemporaryDirectory() as tmp:
        for attempt in range(REPEATS):
            cache = _TimedCache(pathlib.Path(tmp) / f"round-{attempt}", watch)
            before = watch.total
            if attempt % 2:
                cold, cold_s = _timed(e2_run, cache=cache, **SWEEP)
                uncached, uncached_s = _timed(e2_run, cache=False, **SWEEP)
            else:
                uncached, uncached_s = _timed(e2_run, cache=False, **SWEEP)
                cold, cold_s = _timed(e2_run, cache=cache, **SWEEP)
            cache_s = watch.total - before
            shares.append(cache_s / (cold_s - cache_s))
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
        "cold_cache_share": statistics.median(shares),
        "cold_overhead_ratio": statistics.median(overheads),
        "warm_hit_rate": warm.meta["cache"]["hit_rate"],
        "rows_identical": (
            uncached.rows == cold.rows == warm.rows
            and uncached.columns == cold.columns == warm.columns
            and uncached.telemetry == cold.telemetry == warm.telemetry),
    }


def test_cache_uncached_vs_cold_vs_warm(benchmark, record_table, monkeypatch):
    cache = benchmark.pedantic(bench_cache, args=(monkeypatch,),
                               iterations=1, rounds=1)
    result = ExperimentResult(
        "BENCH-cache", "E2 sweep through the run cache: uncached, cold, warm",
        ["mode", "points", "wall_s"])
    for mode in ("uncached", "cold", "warm"):
        result.add_row(mode=mode, points=cache["points"],
                       wall_s=cache[f"{mode}_wall_s"])
    result.notes.append(
        f"warm {cache['warm_speedup']:.0f}x faster (floor "
        f"{WARM_SPEEDUP_FLOOR:.1f}x), cache calls "
        f"{cache['cold_cache_share']:.2%} of a cold sweep (ceiling "
        f"{COLD_OVERHEAD_CEILING:.0%}), cold / uncached "
        f"{cache['cold_overhead_ratio']:+.1%}, warm hit rate "
        f"{cache['warm_hit_rate']:.0%}, rows identical: "
        f"{cache['rows_identical']}")
    record_table(result)
    assert cache["rows_identical"]
    assert cache["warm_hit_rate"] == 1.0
    assert cache["warm_speedup"] >= WARM_SPEEDUP_FLOOR
    assert cache["cold_cache_share"] <= COLD_OVERHEAD_CEILING
