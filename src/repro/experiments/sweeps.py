"""Parameter sweeps: common random numbers, incremental caching, one pool.

Comparing simulated systems fairly means varying only what you mean to
vary; the kernel's named RNG streams give that per-component, and this
module gives it per-*configuration*: :func:`sweep` runs a factory across a
parameter grid with the same seed set, collecting rows into one
:class:`~repro.experiments.harness.ExperimentResult`.

Dispatch core, in order:

1. **Cache lookup** (:mod:`repro.experiments.cache`, opt-in via
   ``cache=True`` / ``REPRO_CACHE=1``): each (point, seed) pair is
   content-addressed by the source digest of ``src/repro``, the
   experiment id, ``run_one``'s identity, the point and the seed.  Hits
   replay byte-identical rows from disk; only misses are computed, so
   editing one axis value recomputes only the new points.
2. **Parallel execution** of the misses: ``workers=N`` fans the pairs
   across a ``fork``-start ``concurrent.futures.ProcessPoolExecutor``.
   A picklable ``run_one`` (module-level function or
   ``functools.partial``) runs on one process-wide *reusable* executor
   shared by every ``sweep()`` call in the session, with an adaptive
   chunksize (workers snapshot the parent interpreter at first fork —
   see :func:`_shared_pool` — and any failure escaping a chunk discards
   the executor so the next sweep re-forks cleanly); lambdas and
   closures fall back to a dedicated per-sweep executor whose workers
   inherit ``run_one`` by fork.  A worker that dies mid-sweep ends the
   sweep in :class:`~repro.kernel.errors.ExperimentError`, never a hang.
   Rows are reassembled in task-submission order either way, so the
   parallel result is *identical* to the serial one.  On platforms
   without ``fork`` the sweep warns once and records ``parallel=False``
   in ``result.meta`` instead of silently crawling.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import pickle
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..kernel.errors import ExperimentError
from .cache import RunCache, cache_key, resolve_cache, run_one_identity, source_digest
from .harness import ExperimentResult


def grid(**axes: Sequence[Any]) -> List[Dict[str, Any]]:
    """Cartesian product of named axes as a list of kwargs dicts.

    >>> grid(a=[1, 2], b=["x"])
    [{'a': 1, 'b': 'x'}, {'a': 2, 'b': 'x'}]
    """
    if not axes:
        raise ExperimentError("grid needs at least one axis")
    names = list(axes)
    out = []
    for values in itertools.product(*(axes[name] for name in names)):
        out.append(dict(zip(names, values)))
    return out


# ---------------------------------------------------------------------------
# Worker plumbing.
#
# Two parallel paths share one contract (tasks carry their submission
# index; rows come back keyed by it, pickled inside the worker):
#
# * picklable ``run_one`` -> the process-wide shared executor; the
#   function rides inside each task as a by-reference pickle (~a
#   qualname), so one long-lived executor serves many different sweeps
#   without re-forking.
# * unpicklable ``run_one`` (lambda/closure) -> a dedicated executor whose
#   initializer receives it through fork inheritance (nothing about it is
#   pickled); the executor lives for that one sweep.
# ---------------------------------------------------------------------------

_WORKER_RUN_ONE: List[Callable[..., Mapping[str, Any]]] = []


def _init_worker(run_one: Callable[..., Mapping[str, Any]]) -> None:
    _WORKER_RUN_ONE[:] = [run_one]


def _run_chunk(chunk: Tuple[int, List[Tuple[int, int, Dict[str, Any]]]],
               ) -> bytes:
    return _run_pickled_chunk(_WORKER_RUN_ONE[0], chunk)


def _run_pickled_chunk(run_one: Callable[..., Mapping[str, Any]],
                       chunk: Tuple[int, List[Tuple[int, int,
                                                    Dict[str, Any]]]],
                       ) -> bytes:
    """Run one chunk; return ``(chunk index, rows, wall)`` pickled.

    Pickling here, in the worker, turns a row that cannot cross the
    process boundary into a clear error instead of a failure inside the
    executor's result pipe, and the blob's length is the row traffic.
    """
    chunk_index, tasks = chunk
    t0 = time.perf_counter()
    rows = [(index, dict(run_one(seed=seed, **point)))
            for index, seed, point in tasks]
    try:
        return pickle.dumps((chunk_index, rows, time.perf_counter() - t0))
    except Exception as exc:
        raise ExperimentError(
            "run_one returned a row that cannot cross the process "
            "boundary (not picklable); return plain dicts of scalars "
            f"— {exc!r}") from exc


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


#: The process-wide reusable executor: ``(executor, size)`` or None.
#: Grown (never shrunk) on demand; sized-down requests reuse the bigger
#: executor — the task list, not the pool size, bounds concurrency
#: usefully here.
_SHARED_POOL: Optional[Tuple[ProcessPoolExecutor, int]] = None

_WARNED_NO_FORK = False


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    """The reusable fork executor, grown to at least ``workers`` processes.

    **Snapshot semantics:** workers are forked when the executor first
    receives work and then reused for every later ``sweep()``, so they
    run against a snapshot of the parent interpreter at that moment.
    Parent-side changes made *after* the first parallel sweep — mutated
    module globals, monkeypatching, reconfigured defaults a ``run_one``
    reads — are invisible to the workers.  ``run_one`` must be a pure
    function of ``(seed, **point)`` (the determinism linter enforces
    this for in-repo experiments); tests that monkeypatch state a
    ``run_one`` reads must call :func:`shutdown_shared_pool` first to
    force a re-fork.  Any failure escaping a chunk tears the shared
    executor down (see :func:`_execute_parallel`), so a crashed worker
    can never leave later sweeps running on a broken one.
    """
    global _SHARED_POOL
    if _SHARED_POOL is not None:
        pool, size = _SHARED_POOL
        if size >= workers:
            return pool
        shutdown_shared_pool()
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"))
    _SHARED_POOL = (pool, workers)
    return pool


def shutdown_shared_pool() -> None:
    """Tear down the reusable executor (tests, atexit).  Safe to call
    twice.  Chunks not yet started are cancelled; running ones finish."""
    global _SHARED_POOL
    if _SHARED_POOL is not None:
        pool, _ = _SHARED_POOL
        _SHARED_POOL = None
        pool.shutdown(cancel_futures=True)


atexit.register(shutdown_shared_pool)


def _adaptive_chunksize(tasks: int, workers: int) -> int:
    """Batch tasks per IPC round trip without losing load balance.

    ``chunksize=1`` maximises balance but pays one pipe round trip per
    task — dominant for grids of sub-second runs.  Aim for ~4 chunks per
    worker (enough slack for wildly uneven points, e.g. 0 vs 32
    interferer pairs) and cap at 32 so one chunk can never hold a
    meaningful fraction of a big grid.
    """
    return max(1, min(32, tasks // (max(1, workers) * 4)))


def _is_picklable(value: Any) -> bool:
    try:
        pickle.dumps(value)
    except Exception:
        return False
    return True


def _execute_parallel(run_one: Callable[..., Mapping[str, Any]],
                      pending: List[Tuple[int, int, Dict[str, Any]]],
                      workers: int,
                      on_row: Callable[[int, Dict[str, Any]], None],
                      ) -> Tuple[Dict[str, int], List[float]]:
    """Fan ``pending`` tasks across processes, streaming rows back.

    Chunks are submitted explicitly and consumed with ``as_completed``:
    ``on_row(index, row)`` fires *as each chunk lands*, so cache stores
    and row assembly overlap with the chunks still executing instead of
    waiting behind the slowest one.  Arrival order is irrelevant — rows
    are keyed by task index and reassembled in submission order by the
    caller.  A worker process that dies raises
    :class:`~repro.kernel.errors.ExperimentError` at once.

    Returns a ``{"tasks": ..., "rows": ...}`` accounting of the pickled
    bytes that crossed the pool pipe (``meta["bytes_shipped"]``) and the
    per-chunk wall times measured inside the workers, indexed by chunk
    (``meta["chunk_walls"]["per_chunk"]``).  ``run_one`` rides in each
    chunk's call (pickled once per chunk), not in every task tuple.
    """
    effective = min(workers, len(pending))
    chunksize = _adaptive_chunksize(len(pending), effective)
    chunks = [(ci, pending[lo:lo + chunksize])
              for ci, lo in enumerate(range(0, len(pending), chunksize))]
    walls = [0.0] * len(chunks)
    row_bytes = 0

    def consume(futures: List[Future]) -> None:
        nonlocal row_bytes
        for future in as_completed(futures):
            reply = future.result()
            row_bytes += len(reply)
            chunk_index, rows, wall = pickle.loads(reply)
            walls[chunk_index] = wall
            for index, row in rows:
                on_row(index, row)

    try:
        if _is_picklable(run_one):
            try:
                task_blob = pickle.dumps(chunks)
            except Exception as exc:
                raise ExperimentError(
                    "sweep point values must be picklable for parallel "
                    f"execution (workers>1): {exc!r}") from exc
            pool = _shared_pool(workers)
            try:
                consume([pool.submit(_run_pickled_chunk, run_one, chunk)
                         for chunk in chunks])
            except Exception:
                # The failure may have killed workers; discard the
                # executor so the next sweep forks a fresh one instead
                # of running on a broken one.
                shutdown_shared_pool()
                raise
        else:
            # Fork inheritance: the initializer receives run_one by
            # address space, so closures and lambdas work — at the price
            # of a fresh executor for this one sweep.
            task_blob = pickle.dumps(chunks)
            pool = ProcessPoolExecutor(
                effective, mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker, initargs=(run_one,))
            try:
                consume([pool.submit(_run_chunk, chunk) for chunk in chunks])
            finally:
                pool.shutdown(cancel_futures=True)
    except BrokenProcessPool as exc:
        raise ExperimentError(
            "a sweep worker process died before returning its rows "
            "(killed or exited abruptly; see its stderr) — the sweep "
            "cannot continue") from exc
    shipped = {"tasks": len(task_blob), "rows": row_bytes}
    return shipped, walls


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------

def sweep(experiment_id: str, title: str,
          run_one: Callable[..., Mapping[str, Any]],
          points: Iterable[Mapping[str, Any]],
          seeds: Sequence[int] = (0,),
          columns: Sequence[str] = (),
          workers: int = 0,
          cache: Any = None) -> ExperimentResult:
    """Run ``run_one(seed=..., **point)`` over every (point, seed) pair.

    ``run_one`` returns a row dict; the parameter point and seed are merged
    in (point values win on key clashes so callers can rename).  Columns
    default to the union of keys in first-row order.

    Args:
        workers: fan the pairs across this many ``multiprocessing`` workers
            (0 or 1 = serial; negative is rejected).  ``run_one`` must be
            deterministic given its seed; rows come back in the same order
            as the serial path.
        cache: ``True`` / a :class:`~repro.experiments.cache.RunCache` to
            replay previously computed (point, seed) pairs from the
            content-addressed on-disk cache; ``False`` forces it off; the
            default ``None`` defers to ``REPRO_CACHE`` / ``REPRO_NO_CACHE``.

    The result's ``meta`` dict records how the sweep actually ran:
    ``workers`` (requested), ``parallel`` (whether a pool was used),
    ``computed`` / ``cached`` task counts, a ``bytes_shipped`` account
    of pickled pipe traffic (``{"tasks", "rows"}``) when a pool was
    used, a ``chunk_walls`` dict when a pool was used (``per_chunk``:
    in-worker wall seconds per chunk; ``assemble_overlap_s``: table
    assembly seconds folded into chunk arrival instead of a
    post-barrier pass), and a per-sweep ``cache`` stats delta when
    caching was on.
    """
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ExperimentError(f"workers must be an int, not {workers!r}")
    if workers < 0:
        raise ExperimentError(
            f"workers must be >= 0, not {workers} (0 or 1 = serial)")
    tasks: List[Tuple[int, int, Dict[str, Any]]] = []
    for point in points:
        for seed in seeds:
            tasks.append((len(tasks), seed, dict(point)))
    if not tasks:
        raise ExperimentError("sweep produced no rows")

    # ---- phase 1: cache lookup ---------------------------------------
    run_cache = resolve_cache(cache)
    stats_before = run_cache.stats.snapshot() if run_cache else None
    keys: Dict[int, str] = {}
    replayed: Dict[int, Tuple[Dict[str, Any], Any]] = {}
    pending: List[Tuple[int, int, Dict[str, Any]]] = []
    if run_cache is not None:
        identity = run_one_identity(run_one)
        if identity is None:
            run_cache.stats.uncacheable.add(len(tasks))
            pending = tasks
        else:
            src = source_digest()
            for index, seed, point in tasks:
                try:
                    key = cache_key(experiment_id, identity, point, seed,
                                    src_digest=src)
                except ExperimentError:
                    run_cache.stats.uncacheable.add()
                    pending.append((index, seed, point))
                    continue
                keys[index] = key
                entry = run_cache.get(key)
                if entry is None:
                    pending.append((index, seed, point))
                else:
                    replayed[index] = (entry["row"], entry.get("telemetry"))
    else:
        pending = tasks

    # ---- phase 2: execute the misses, storing rows as they land ------
    measured_by_index: Dict[int, Tuple[Dict[str, Any], Any]] = dict(replayed)

    assembled: Dict[int, Dict[str, Any]] = {}
    assemble_wall = 0.0

    def store_row(index: int, measured: Dict[str, Any]) -> None:
        # "telemetry" is reserved: a per-run summary dict (small and
        # picklable — it crossed the fork pipe instead of the raw trace).
        # It rides on the result, not in the table.  Called per chunk as
        # results stream in, so cache writes overlap with the chunks
        # still executing.
        nonlocal assemble_wall
        telemetry_entry = measured.pop("telemetry", None)
        measured_by_index[index] = (measured, telemetry_entry)
        if run_cache is not None and index in keys:
            run_cache.put(keys[index], measured, telemetry_entry)
        # Fold the final table row here too: on the parallel path this
        # runs while other chunks are still executing, so the assembly
        # cost (merging point + seed + measured, point keys winning)
        # overlaps the pool instead of queueing behind the slowest
        # chunk.  The accumulated seconds are the wall time phase 3
        # no longer has to spend — reported as
        # ``meta["chunk_walls"]["assemble_overlap_s"]``.
        t0 = time.perf_counter()
        _i, seed, point = tasks[index]
        row: Dict[str, Any] = {"seed": seed}
        row.update(point)
        for key, value in measured.items():
            if key not in row:
                row[key] = value
        assembled[index] = row
        assemble_wall += time.perf_counter() - t0

    global _WARNED_NO_FORK
    parallel = False
    bytes_shipped: Optional[Dict[str, int]] = None
    chunk_walls: Optional[List[float]] = None
    if workers > 1 and len(pending) > 1:
        if _fork_available():
            parallel = True
            bytes_shipped, chunk_walls = _execute_parallel(
                run_one, pending, workers, store_row)
        else:
            if not _WARNED_NO_FORK:
                _WARNED_NO_FORK = True
                warnings.warn(
                    "sweep: the 'fork' start method is unavailable on "
                    "this platform; running serially (workers request "
                    "ignored). This warning is emitted once.",
                    RuntimeWarning, stacklevel=2)
            for index, seed, point in pending:
                store_row(index, dict(run_one(seed=seed, **point)))
    else:
        for index, seed, point in pending:
            store_row(index, dict(run_one(seed=seed, **point)))

    # ---- phase 3: order the pre-assembled rows -----------------------
    # Computed rows were folded into the table inside ``store_row`` as
    # their chunks landed; only cache-replayed rows (which never cross
    # the streaming callback) are assembled here.
    rows: List[Dict[str, Any]] = []
    telemetry: List[Any] = []
    for index, seed, point in tasks:
        measured, telemetry_entry = measured_by_index[index]
        telemetry.append(telemetry_entry)
        row = assembled.get(index)
        if row is None:
            row = {"seed": seed}
            row.update(point)
            for key, value in measured.items():
                if key not in row:
                    row[key] = value
        rows.append(row)
    if not columns:
        columns = list(rows[0].keys())
    result = ExperimentResult(experiment_id, title, list(columns))
    for row in rows:
        result.add_row(**{k: row.get(k) for k in columns})
    if any(entry is not None for entry in telemetry):
        result.telemetry = telemetry
    result.meta.update({
        "workers": workers,
        "parallel": parallel,
        "computed": len(pending),
        "cached": len(replayed),
    })
    if bytes_shipped is not None:
        result.meta["bytes_shipped"] = bytes_shipped
    if chunk_walls is not None:
        result.meta["chunk_walls"] = {
            "per_chunk": chunk_walls,
            "assemble_overlap_s": assemble_wall,
        }
    if run_cache is not None:
        after = run_cache.stats.snapshot()
        delta = {name: after[name] - stats_before[name]
                 for name in sorted(stats_before) if name != "hit_rate"}
        lookups = delta["hits"] + delta["misses"]
        delta["hit_rate"] = delta["hits"] / lookups if lookups else 0.0
        result.meta["cache"] = delta
    return result


def averaged_over_seeds(result: ExperimentResult,
                        group_by: Sequence[str],
                        metrics: Sequence[str]) -> ExperimentResult:
    """Collapse a multi-seed sweep: mean of ``metrics`` per parameter point.

    When the input carries per-row telemetry summaries (``sweep`` attaches
    them for ``run_one``s that return a ``"telemetry"`` key), each output
    row gets an *aggregated* summary — counts summed across the collapsed
    replicates via :func:`repro.telemetry.summary.aggregate_telemetry` —
    so layer/issue reporting keeps working on seed-averaged results.
    """
    from ..telemetry.summary import aggregate_telemetry

    per_row_telemetry = (list(result.telemetry)
                         if len(result.telemetry) == len(result.rows)
                         else [None] * len(result.rows))
    groups: Dict[tuple, List[Dict[str, Any]]] = {}
    group_telemetry: Dict[tuple, List[Any]] = {}
    for row, telemetry_entry in zip(result.rows, per_row_telemetry):
        key = tuple(row.get(name) for name in group_by)
        groups.setdefault(key, []).append(row)
        group_telemetry.setdefault(key, []).append(telemetry_entry)
    out = ExperimentResult(result.experiment_id + "-avg",
                           result.title + " (seed-averaged)",
                           list(group_by) + [f"mean_{m}" for m in metrics]
                           + ["replicates"])
    aggregated: List[Any] = []
    for key, rows in groups.items():
        aggregates: Dict[str, Any] = dict(zip(group_by, key))
        for metric in metrics:
            values = [row[metric] for row in rows if row.get(metric) is not None]
            aggregates[f"mean_{metric}"] = (sum(values) / len(values)
                                            if values else float("nan"))
        aggregates["replicates"] = len(rows)
        out.add_row(**aggregates)
        summaries = [entry for entry in group_telemetry[key]
                     if entry is not None]
        aggregated.append(aggregate_telemetry(summaries) if summaries
                          else None)
    if any(entry is not None for entry in aggregated):
        out.telemetry = aggregated
    return out
