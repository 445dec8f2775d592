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
2. **Execution** of the misses, serially or, with ``workers=N``, on a
   ``fork``-start ``concurrent.futures.ProcessPoolExecutor`` forked for
   this one sweep and shut down before it returns (or raises).  Workers
   inherit ``run_one`` by fork, so module-level functions, partials,
   lambdas and closures all take the same path, and each sweep's workers
   see the parent as it is when that sweep starts.  One future per task;
   a worker that dies mid-sweep ends the sweep in
   :class:`~repro.kernel.errors.ExperimentError`, never a hang.  On
   platforms without ``fork`` the sweep warns once and records
   ``parallel=False`` in ``result.meta`` instead of silently crawling.
3. **Assembly** of every row in task-submission order, so the parallel
   result is *identical* to the serial one.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from ..kernel.errors import ExperimentError
from .cache import cache_key, resolve_cache, run_one_identity, source_digest

if TYPE_CHECKING:
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
# Worker plumbing: the pool's initializer receives ``run_one`` through
# fork inheritance (nothing about it is pickled); each task ships only
# ``(seed, point)`` out and one pickled row back.
# ---------------------------------------------------------------------------

_WORKER_RUN_ONE: List[Callable[..., Mapping[str, Any]]] = []


def _init_worker(run_one: Callable[..., Mapping[str, Any]]) -> None:
    _WORKER_RUN_ONE[:] = [run_one]


def _run_task(seed: int, point: Dict[str, Any]) -> bytes:
    """Run one task in a worker; return its row pickled.

    Pickling here, in the worker, turns a row that cannot cross the
    process boundary into a clear error instead of a failure inside the
    executor's result pipe.
    """
    row = dict(_WORKER_RUN_ONE[0](seed=seed, **point))
    try:
        return pickle.dumps(row)
    except Exception as exc:
        raise ExperimentError(
            "run_one returned a row that cannot cross the process "
            "boundary (not picklable); return plain dicts of scalars "
            f"— {exc!r}") from exc


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


_WARNED_NO_FORK = False


def _execute_parallel(run_one: Callable[..., Mapping[str, Any]],
                      pending: List[Tuple[int, int, Dict[str, Any]]],
                      workers: int,
                      on_row: Callable[[int, Dict[str, Any]], None],
                      ) -> None:
    """Run ``pending`` tasks on a pool forked for this call alone.

    ``on_row(index, row)`` fires per task in submission order, so the
    first failing task in that order is the one whose error surfaces,
    as on the serial path.  The pool is shut down before this returns or
    raises; a worker process that dies raises
    :class:`~repro.kernel.errors.ExperimentError` at once.
    """
    try:
        pickle.dumps([(seed, point) for _i, seed, point in pending])
    except Exception as exc:
        raise ExperimentError(
            "sweep point values must be picklable for parallel "
            f"execution (workers>1): {exc!r}") from exc
    pool = ProcessPoolExecutor(
        min(workers, len(pending)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker, initargs=(run_one,))
    try:
        futures = [(index, pool.submit(_run_task, seed, point))
                   for index, seed, point in pending]
        for index, future in futures:
            on_row(index, pickle.loads(future.result()))
    except BrokenProcessPool as exc:
        raise ExperimentError(
            "a sweep worker process died before returning its rows "
            "(killed or exited abruptly; see its stderr) — the sweep "
            "cannot continue") from exc
    finally:
        pool.shutdown(cancel_futures=True)


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
        workers: fan the pairs across this many worker processes, forked
            for this sweep and shut down before it returns (0 or 1 =
            serial; negative is rejected).  ``run_one`` may be any
            callable, closures included, and must be deterministic given
            its seed; rows come back in the same order as the serial
            path.  Point values must be picklable.
        cache: ``True`` / a :class:`~repro.experiments.cache.RunCache` to
            replay previously computed (point, seed) pairs from the
            content-addressed on-disk cache; ``False`` forces it off; the
            default ``None`` defers to ``REPRO_CACHE`` / ``REPRO_NO_CACHE``.

    The result's ``meta`` dict records how the sweep actually ran:
    ``workers`` (requested), ``parallel`` (whether a pool was used),
    ``computed`` / ``cached`` task counts, and a per-sweep ``cache``
    stats delta when caching was on.
    """
    # harness imports the experiment modules, which import this module.
    from .harness import ExperimentResult

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

    def store_row(index: int, measured: Dict[str, Any]) -> None:
        # "telemetry" is reserved: a per-run summary dict (small and
        # picklable — it crossed the fork pipe instead of the raw trace).
        # It rides on the result, not in the table.
        telemetry_entry = measured.pop("telemetry", None)
        measured_by_index[index] = (measured, telemetry_entry)
        if run_cache is not None and index in keys:
            run_cache.put(keys[index], measured, telemetry_entry)

    global _WARNED_NO_FORK
    parallel = workers > 1 and len(pending) > 1
    if parallel and not _fork_available():
        parallel = False
        if not _WARNED_NO_FORK:
            _WARNED_NO_FORK = True
            warnings.warn(
                "sweep: the 'fork' start method is unavailable on "
                "this platform; running serially (workers request "
                "ignored). This warning is emitted once.",
                RuntimeWarning, stacklevel=2)
    if parallel:
        _execute_parallel(run_one, pending, workers, store_row)
    else:
        for index, seed, point in pending:
            store_row(index, dict(run_one(seed=seed, **point)))

    # ---- phase 3: assemble rows in submission order ------------------
    rows: List[Dict[str, Any]] = []
    telemetry: List[Any] = []
    for index, seed, point in tasks:
        measured, telemetry_entry = measured_by_index[index]
        telemetry.append(telemetry_entry)
        row: Dict[str, Any] = {"seed": seed}
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
    from .harness import ExperimentResult

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
