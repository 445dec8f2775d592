"""Content-addressed run cache for incremental sweeps.

PR 4's determinism linter keeps every ``run_one`` a pure function of
``(code, point, seed)`` — which is exactly the precondition for sound
memoization.  This module turns that invariant into wall-clock savings:
each (point, seed) pair of a sweep is keyed by the SHA-256 of a canonical
JSON of

    (source digest of ``src/repro``, experiment id, run_one identity,
     point, seed, schema version)

and its measured row (plus telemetry summary) is stored as one small JSON
file under a content-addressed directory.  Re-invoking the same sweep
returns byte-identical rows from disk in milliseconds; editing one axis
value recomputes only the new points; editing *any* source file under
``src/repro`` changes the source digest and invalidates everything —
no manual cache management, no stale results.

Key properties:

* **Keys are process-independent.**  The canonical JSON uses sorted keys
  and exact float repr, so the same grid hashed in a fresh interpreter
  yields identical keys (pinned by a subprocess test).
* **Misses are the only failure mode.**  Corrupted, truncated or
  version-skewed entries read as misses and are recomputed — a cache
  must never be able to kill the sweep that asked for it.
* **Only identifiable work is cached.**  A module-level ``run_one`` (or a
  ``functools.partial`` over one with JSON-serializable bound arguments)
  has a stable cross-process identity that includes a digest of its own
  source file, so a ``run_one`` living *outside* ``src/repro`` still
  invalidates when its module is edited.  Lambdas, closures and bound
  methods do not — their captured state (cells, ``__self__``) is
  invisible to the key — so they are counted as ``uncacheable`` and
  always computed.
* **Rows round-trip exactly or not at all.**  Before an entry is stored,
  the row is JSON round-tripped and compared ``==`` to the original;
  any value JSON cannot represent faithfully (tuples, numpy scalars)
  makes that row uncacheable instead of silently mutating on replay.

Overrides: ``REPRO_CACHE_DIR`` moves the store, ``REPRO_CACHE=1`` turns
caching on for every sweep in the process, ``REPRO_NO_CACHE=1`` wins over
everything except an explicitly passed :class:`RunCache` instance.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import os
import pathlib
import re
from typing import Any, Callable, Dict, Mapping, Optional

from ..kernel.errors import ExperimentError
from ..metrics.counters import Counter

#: Bump when the entry layout (or the meaning of a key component)
#: changes; old entries then read as misses instead of mis-decoding.
CACHE_SCHEMA_VERSION = 1

#: Environment variable overriding the on-disk location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Set (to any non-empty value) to enable caching for every sweep.
CACHE_ON_ENV = "REPRO_CACHE"

#: Set to force caching off; wins over ``REPRO_CACHE`` and ``cache=True``.
CACHE_OFF_ENV = "REPRO_NO_CACHE"


def default_cache_dir() -> pathlib.Path:
    """Resolve the cache directory (``REPRO_CACHE_DIR`` or ``~/.cache``)."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "repro" / "runs"


# ---------------------------------------------------------------------------
# Source digest — the code component of every key
# ---------------------------------------------------------------------------

_SOURCE_DIGEST_MEMO: Dict[pathlib.Path, str] = {}


def source_digest(root: Optional[pathlib.Path] = None) -> str:
    """SHA-256 over every ``*.py`` file under the ``repro`` package.

    Files are walked in sorted relative-path order and each contributes
    its path and raw bytes, so the digest is stable across processes and
    platforms but changes when any source file is edited, added or
    removed.  Memoized per process: source does not change under a
    running interpreter, and a bench/report session asks thousands of
    times.
    """
    if root is None:
        # The repro package directory, derived from this file's location
        # (an ``import repro`` here would be an upward layer reference).
        root = pathlib.Path(__file__).resolve().parent.parent
    root = pathlib.Path(root)
    memo = _SOURCE_DIGEST_MEMO.get(root)
    if memo is not None:
        return memo
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    value = digest.hexdigest()
    _SOURCE_DIGEST_MEMO[root] = value
    return value


# ---------------------------------------------------------------------------
# run_one identity and key derivation
# ---------------------------------------------------------------------------

_FUNCTION_SOURCE_MEMO: Dict[str, Optional[str]] = {}


def _function_source_digest(run_one: Callable[..., Any]) -> Optional[str]:
    """SHA-256 of ``run_one``'s source *file*, or None when it has none.

    The package-wide :func:`source_digest` only covers ``src/repro``; a
    ``run_one`` defined in user code would otherwise be keyed by name
    alone, silently replaying stale rows after its body (or a helper in
    the same module) is edited.  Hashing the whole source file — not just
    the function body — catches same-module helpers too.  Memoized per
    path for the same reason as :func:`source_digest`.
    """
    try:
        path = inspect.getsourcefile(run_one)
    except TypeError:
        return None
    if not path:
        return None
    if path in _FUNCTION_SOURCE_MEMO:
        return _FUNCTION_SOURCE_MEMO[path]
    try:
        value: Optional[str] = hashlib.sha256(
            pathlib.Path(path).read_bytes()).hexdigest()
    except OSError:
        value = None
    _FUNCTION_SOURCE_MEMO[path] = value
    return value


def run_one_identity(run_one: Callable[..., Any]) -> Optional[str]:
    """A stable cross-process name for ``run_one``, or None if it has none.

    Module-level functions are identified by ``module:qualname`` plus a
    digest of their source file (so editing a ``run_one`` that lives
    outside ``src/repro`` still invalidates its entries); a
    ``functools.partial`` chain over one additionally contributes its
    bound arguments (canonical JSON).  Lambdas, closures, locally defined
    functions and bound methods return None — their behaviour depends on
    state (cells, ``__self__``) the key cannot see, so caching them would
    be unsound.
    """
    if isinstance(run_one, functools.partial):
        inner = run_one_identity(run_one.func)
        if inner is None:
            return None
        try:
            bound = canonical_json({"args": list(run_one.args),
                                    "keywords": dict(run_one.keywords)})
        except ExperimentError:
            return None
        return f"partial({inner}, {bound})"
    if getattr(run_one, "__self__", None) is not None:
        # A bound method: __qualname__/__closure__ look clean, but the
        # instance state behind __self__ is invisible to the key —
        # Runner(1).run and Runner(1000).run would collide.
        return None
    qualname = getattr(run_one, "__qualname__", None)
    module = getattr(run_one, "__module__", None)
    if not qualname or not module:
        return None
    if "<lambda>" in qualname or "<locals>" in qualname:
        return None
    if getattr(run_one, "__closure__", None):
        return None
    src = _function_source_digest(run_one)
    if src is None:
        return None
    return f"{module}:{qualname}#{src[:16]}"


def canonical_json(value: Any) -> str:
    """Canonical (sorted-key, compact) JSON for key material.

    Raises :class:`ExperimentError` for values JSON cannot represent —
    a cache key must never be derived from a lossy encoding.
    """
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"),
                          allow_nan=True)
    except (TypeError, ValueError) as exc:
        raise ExperimentError(
            f"value is not JSON-serializable for cache keying: {exc}"
        ) from exc


def cache_key(experiment_id: str, run_one_name: str,
              point: Mapping[str, Any], seed: int,
              src_digest: Optional[str] = None,
              schema_version: Optional[int] = None) -> str:
    """SHA-256 hex key for one (point, seed) pair of a sweep.

    Any component changing — a point value, the seed, the experiment id,
    the run_one identity, one byte of ``src/repro``, or the schema
    version — yields a different key; equal inputs yield equal keys in
    any process.
    """
    if schema_version is None:
        schema_version = CACHE_SCHEMA_VERSION
    material = canonical_json({
        "source": src_digest if src_digest is not None else source_digest(),
        "experiment_id": experiment_id,
        "run_one": run_one_name,
        "point": dict(point),
        "seed": seed,
        "schema": schema_version,
    })
    return hashlib.sha256(material.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------

class CacheStats:
    """Monotone counters describing one :class:`RunCache`'s lifetime,
    built from the metrics layer's
    :class:`~repro.metrics.counters.Counter`."""

    FIELDS = ("hits", "misses", "stores", "corrupt", "uncacheable")

    def __init__(self) -> None:
        self.hits = Counter("experiments.cache.hits")
        self.misses = Counter("experiments.cache.misses")
        self.stores = Counter("experiments.cache.stores")
        self.corrupt = Counter("experiments.cache.corrupt")
        self.uncacheable = Counter("experiments.cache.uncacheable")

    def snapshot(self) -> Dict[str, float]:
        out = {name: getattr(self, name).value for name in self.FIELDS}
        lookups = out["hits"] + out["misses"]
        out["hit_rate"] = out["hits"] / lookups if lookups else 0.0
        return out


# ---------------------------------------------------------------------------
# The on-disk store
# ---------------------------------------------------------------------------

#: The entry layout: a two-hex shard directory holding <64-hex>.json files.
_SHARD_RE = re.compile(r"[0-9a-f]{2}")
_ENTRY_RE = re.compile(r"[0-9a-f]{64}\.json")


class RunCache:
    """Content-addressed store of measured sweep rows.

    Entries live at ``<dir>/<key[:2]>/<key>.json`` (two-level fan-out so
    a million-entry campaign does not produce a million-entry directory)
    and are written atomically: serialized to ``<name>.tmp.<pid>`` then
    ``os.replace``d into place, so a crashed or concurrent writer can
    truncate only its own temp file, never a published entry.
    """

    def __init__(self, directory: Optional[pathlib.Path] = None) -> None:
        self.directory = pathlib.Path(directory if directory is not None
                                      else default_cache_dir())
        self.stats = CacheStats()

    # -- key plumbing ---------------------------------------------------
    def _entry_path(self, key: str) -> pathlib.Path:
        return self.directory / key[:2] / f"{key}.json"

    # -- lookup / store -------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored ``{"row": ..., "telemetry": ...}`` entry, or None.

        Unreadable, truncated, non-JSON or version-skewed entries count
        as ``corrupt`` and read as misses — never as errors.
        """
        path = self._entry_path(key)
        try:
            body = path.read_bytes()
        except OSError:
            self.stats.misses.add()
            return None
        try:
            # Decoded here: UnicodeDecodeError is a ValueError, so bytes
            # that are not UTF-8 make a corrupt entry, not a crash.
            entry = json.loads(body.decode())
            if (not isinstance(entry, dict)
                    or entry.get("schema") != CACHE_SCHEMA_VERSION
                    or not isinstance(entry.get("row"), dict)):
                raise ValueError("malformed cache entry")
        except ValueError:
            self.stats.corrupt.add()
            self.stats.misses.add()
            return None
        self.stats.hits.add()
        return entry

    def put(self, key: str, row: Mapping[str, Any],
            telemetry: Any = None) -> bool:
        """Store one measured row; returns False when the row cannot be
        cached faithfully (non-JSON values or lossy round-trips)."""
        row = dict(row)
        entry = {"schema": CACHE_SCHEMA_VERSION, "key": key,
                 "row": row, "telemetry": telemetry}
        try:
            body = json.dumps(entry, allow_nan=True)
            # A tuple would come back as a list, an int-valued float as
            # itself but a numpy scalar would not survive at all: only
            # rows that replay *exactly* may enter the cache.  NaN rows
            # (averaged_over_seeds emits them for empty groups) round-trip
            # faithfully through allow_nan and must stay cacheable, so
            # the comparison is NaN-aware.
            replay = json.loads(body)
            same = (_json_equal(replay["row"], row)
                    and _json_equal(replay["telemetry"], telemetry))
        except (TypeError, ValueError):
            same = False
        if not same:
            self.stats.uncacheable.add()
            return False
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        tmp.write_text(body)
        os.replace(tmp, path)
        self.stats.stores.add()
        return True

    # -- maintenance ----------------------------------------------------
    def _entry_files(self):
        """Yield paths matching the entry layout — a two-hex shard dir
        containing ``<64-hex>.json`` — and nothing else.  ``clear`` and
        ``disk_stats`` walk only these so a mistyped ``REPRO_CACHE_DIR``
        (or ``cache clear --dir``) pointed at a project directory can
        never delete unrelated JSON files."""
        if not self.directory.is_dir():
            return
        for shard in sorted(self.directory.iterdir()):
            if not (shard.is_dir() and _SHARD_RE.fullmatch(shard.name)):
                continue
            for path in sorted(shard.iterdir()):
                if (_ENTRY_RE.fullmatch(path.name)
                        and path.name.startswith(shard.name)):
                    yield path

    def clear(self) -> int:
        """Delete every entry (and leftover temp file); returns how many
        entries were removed.  Only files matching the entry layout are
        touched — foreign files in a misconfigured directory survive."""
        removed = 0
        for path in list(self._entry_files()):
            shard = path.parent
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
            for tmp in shard.glob(f"{path.name}.tmp.*"):
                try:
                    tmp.unlink()
                except OSError:
                    continue
            try:
                shard.rmdir()  # only succeeds once the shard is empty
            except OSError:
                pass
        return removed

    def disk_stats(self) -> Dict[str, Any]:
        """On-disk shape: entry count and total bytes (for ``cli cache``)."""
        entries = 0
        size = 0
        for path in self._entry_files():
            try:
                size += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return {"directory": str(self.directory),
                "entries": entries, "bytes": size}


def _json_equal(replayed: Any, original: Any) -> bool:
    """True when JSON replay preserved the value exactly — same *types*
    (``1.0 == 1`` but a cached int must not come back a float, a tuple
    must not come back a list) and same values, with ``NaN`` treated as
    equal to itself so NaN-bearing rows stay cacheable."""
    if type(replayed) is not type(original):  # noqa: E721
        return False
    if isinstance(original, dict):
        return (list(replayed) == list(original)
                and all(_json_equal(replayed[k], v)
                        for k, v in original.items()))
    if isinstance(original, list):
        return (len(replayed) == len(original)
                and all(map(_json_equal, replayed, original)))
    if isinstance(original, float) and math.isnan(original):
        return math.isnan(replayed)
    return replayed == original


# ---------------------------------------------------------------------------
# Policy resolution (the sweep() entry point)
# ---------------------------------------------------------------------------

def resolve_cache(cache: Any) -> Optional["RunCache"]:
    """Turn ``sweep(..., cache=...)`` into a :class:`RunCache` or None.

    Precedence, strongest first:

    1. an explicit :class:`RunCache` instance is always honoured;
    2. ``REPRO_NO_CACHE`` forces caching off;
    3. explicit ``cache=True`` / ``cache=False``;
    4. ``REPRO_CACHE`` turns caching on;
    5. default: off.
    """
    if isinstance(cache, RunCache):
        return cache
    if os.environ.get(CACHE_OFF_ENV):
        return None
    if cache is True:
        return RunCache()
    if cache is False:
        return None
    if cache is None:
        return RunCache() if os.environ.get(CACHE_ON_ENV) else None
    raise ExperimentError(
        f"cache must be None, a bool or a RunCache, not {cache!r}")
