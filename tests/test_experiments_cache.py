"""Tests for the content-addressed run cache behind incremental sweeps."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro.experiments.cache as cache_mod
from repro.experiments.cache import (
    CACHE_SCHEMA_VERSION,
    RunCache,
    cache_key,
    canonical_json,
    resolve_cache,
    run_one_identity,
    source_digest,
)
from repro.experiments.sweeps import grid, sweep
from repro.kernel.errors import ExperimentError


# ---------------------------------------------------------------------------
# Module-level run_one functions (cacheable identities)
# ---------------------------------------------------------------------------

def run_one_linear(seed, knob):
    return {"value": knob * 10 + seed, "knob_sq": knob * knob}


def run_one_tuple_row(seed, knob):
    return {"value": (knob, seed)}  # tuples do not survive JSON replay


# ---------------------------------------------------------------------------
# Key derivation
# ---------------------------------------------------------------------------

def test_cache_key_stable_within_process():
    a = cache_key("E2", "m:f", {"pairs": 4, "plan": "spread"}, 7,
                  src_digest="abc")
    b = cache_key("E2", "m:f", {"plan": "spread", "pairs": 4}, 7,
                  src_digest="abc")
    assert a == b  # canonical JSON sorts keys


def test_cache_key_stable_in_fresh_subprocess():
    """The same grid hashed in a fresh interpreter yields identical keys
    — the property that makes on-disk entries reusable across sessions."""
    points = grid(pairs=[0, 2], plan=["cochannel", "spread"])
    local = [cache_key("E2", "mod:fn", point, 3, src_digest="d1")
             for point in points]
    code = (
        "import json, sys\n"
        "from repro.experiments.cache import cache_key\n"
        "from repro.experiments.sweeps import grid\n"
        "points = grid(pairs=[0, 2], plan=['cochannel', 'spread'])\n"
        "print(json.dumps([cache_key('E2', 'mod:fn', p, 3, src_digest='d1')"
        " for p in points]))\n")
    src_dir = pathlib.Path(cache_mod.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == local


@pytest.mark.parametrize("mutate", [
    dict(point={"pairs": 5}),            # point value
    dict(seed=8),                        # seed
    dict(experiment_id="E3"),            # experiment id
    dict(run_one_name="mod:other"),      # run_one identity
    dict(src_digest="different"),        # source digest
    dict(schema_version=CACHE_SCHEMA_VERSION + 1),  # schema version
])
def test_cache_key_changes_with_every_component(mutate):
    base = dict(experiment_id="E2", run_one_name="mod:fn",
                point={"pairs": 4}, seed=7, src_digest="abc",
                schema_version=CACHE_SCHEMA_VERSION)
    assert cache_key(**base) != cache_key(**{**base, **mutate})


def test_canonical_json_rejects_unserializable():
    with pytest.raises(ExperimentError):
        canonical_json({"lock": object()})


def test_source_digest_changes_when_source_changes(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    before = source_digest(tmp_path)
    assert before == source_digest(tmp_path)  # memoized, stable
    (tmp_path / "a.py").write_text("x = 2\n")
    cache_mod._SOURCE_DIGEST_MEMO.clear()  # a fresh process would see this
    assert source_digest(tmp_path) != before


def test_source_digest_sees_new_files(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    before = source_digest(tmp_path)
    (tmp_path / "b.py").write_text("y = 1\n")
    cache_mod._SOURCE_DIGEST_MEMO.clear()
    assert source_digest(tmp_path) != before


# ---------------------------------------------------------------------------
# run_one identity
# ---------------------------------------------------------------------------

def test_identity_module_function():
    name = run_one_identity(run_one_linear)
    assert name is not None and "run_one_linear" in name


def test_identity_partial_includes_bound_arguments():
    import functools

    a = run_one_identity(functools.partial(run_one_linear, knob=1))
    b = run_one_identity(functools.partial(run_one_linear, knob=2))
    assert a is not None and b is not None and a != b


def test_identity_rejects_lambda_closure_and_unserializable_partial():
    import functools

    captured = 3

    def local_fn(seed):
        return {"v": captured}

    assert run_one_identity(lambda seed: {"v": 1}) is None
    assert run_one_identity(local_fn) is None
    assert run_one_identity(
        functools.partial(run_one_linear, knob=object())) is None


class StatefulRunner:
    def __init__(self, scale):
        self.scale = scale

    def run_point(self, seed, knob):
        return {"value": knob * self.scale + seed}


def test_identity_rejects_bound_methods():
    """A bound method's __qualname__/__closure__ look cacheable, but the
    instance state behind __self__ is invisible to the key — caching it
    would replay Runner(1)'s rows for Runner(1000)."""
    import functools

    assert run_one_identity(StatefulRunner(1).run_point) is None
    assert run_one_identity(
        functools.partial(StatefulRunner(1).run_point, knob=2)) is None


def test_sweep_bound_method_uncacheable_never_cross_contaminates(tmp_path):
    cache = RunCache(tmp_path)
    small = sweep("X", "t", StatefulRunner(1).run_point, grid(knob=[3]),
                  cache=cache)
    large = sweep("X", "t", StatefulRunner(1000).run_point, grid(knob=[3]),
                  cache=cache)
    assert small.column("value") == [3]
    assert large.column("value") == [3000]  # not a replay of Runner(1)
    assert cache.disk_stats()["entries"] == 0
    assert cache.stats.snapshot()["uncacheable"] == 2


def test_identity_tracks_run_one_source_outside_package(tmp_path):
    """Editing a run_one defined outside src/repro must change its
    identity — the package source digest cannot see it."""
    import importlib.util

    module_path = tmp_path / "user_experiment.py"

    def load():
        spec = importlib.util.spec_from_file_location(
            "user_experiment", module_path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        cache_mod._FUNCTION_SOURCE_MEMO.clear()  # fresh process would
        return run_one_identity(module.run_point)

    module_path.write_text(
        "def run_point(seed, knob):\n    return {'v': knob}\n")
    before = load()
    module_path.write_text(
        "def run_point(seed, knob):\n    return {'v': knob * 2}\n")
    after = load()
    assert before is not None and after is not None
    assert before != after


# ---------------------------------------------------------------------------
# The on-disk store
# ---------------------------------------------------------------------------

def test_put_get_round_trip(tmp_path):
    cache = RunCache(tmp_path)
    key = cache_key("X", "m:f", {"k": 1}, 0, src_digest="s")
    row = {"value": 1.5, "count": 3, "label": "spread", "flag": True}
    assert cache.put(key, row, {"events": 10})
    entry = cache.get(key)
    assert entry["row"] == row
    assert list(entry["row"]) == list(row)  # column order preserved
    assert entry["telemetry"] == {"events": 10}
    assert cache.stats.snapshot()["hits"] == 1


def test_miss_on_absent_key(tmp_path):
    cache = RunCache(tmp_path)
    assert cache.get("0" * 64) is None
    assert cache.stats.snapshot()["misses"] == 1


@pytest.mark.parametrize("corruption", [
    "",                                   # truncated to nothing
    "{not json",                          # invalid JSON
    '{"schema": 999, "row": {}}',         # version skew
    '{"schema": %d, "row": [1, 2]}' % CACHE_SCHEMA_VERSION,  # wrong shape
    '[1, 2, 3]',                          # not an object
])
def test_corrupted_entries_are_misses_never_crashes(tmp_path, corruption):
    cache = RunCache(tmp_path)
    key = cache_key("X", "m:f", {"k": 1}, 0, src_digest="s")
    assert cache.put(key, {"v": 1})
    cache._entry_path(key).write_text(corruption)
    assert cache.get(key) is None
    stats = cache.stats.snapshot()
    assert stats["corrupt"] == 1 and stats["misses"] == 1


def test_rows_that_do_not_replay_exactly_are_not_cached(tmp_path):
    cache = RunCache(tmp_path)
    key = cache_key("X", "m:f", {"k": 1}, 0, src_digest="s")
    assert not cache.put(key, {"v": (1, 2)})        # tuple -> list
    assert not cache.put(key, {"v": object()})      # not serializable
    assert cache.stats.snapshot()["uncacheable"] == 2
    assert cache.disk_stats()["entries"] == 0


def test_nan_rows_are_cacheable(tmp_path):
    """allow_nan serialization round-trips NaN faithfully; NaN != NaN
    must not make every NaN-bearing row (averaged_over_seeds emits them
    for empty groups) silently uncacheable forever."""
    import math

    cache = RunCache(tmp_path)
    key = cache_key("X", "m:f", {"k": 1}, 0, src_digest="s")
    row = {"value": float("nan"), "count": 2}
    assert cache.put(key, row, {"mean": float("nan")})
    entry = cache.get(key)
    assert math.isnan(entry["row"]["value"])
    assert entry["row"]["count"] == 2
    assert math.isnan(entry["telemetry"]["mean"])
    assert cache.stats.snapshot()["uncacheable"] == 0


def test_clear_skips_foreign_files(tmp_path):
    """clear() pointed at the wrong directory (mistyped REPRO_CACHE_DIR)
    must only delete files matching the entry layout."""
    cache = RunCache(tmp_path)
    key = cache_key("X", "m:f", {"k": 1}, 0, src_digest="s")
    assert cache.put(key, {"v": 1})
    foreign = [tmp_path / "settings.json",
               tmp_path / "data" / "results.json",
               tmp_path / key[:2] / "notes.json"]
    for path in foreign:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{}")
    assert cache.clear() == 1
    for path in foreign:
        assert path.exists()
    assert cache.disk_stats()["entries"] == 0


def test_clear_and_disk_stats(tmp_path):
    cache = RunCache(tmp_path)
    for knob in range(3):
        key = cache_key("X", "m:f", {"k": knob}, 0, src_digest="s")
        assert cache.put(key, {"v": knob})
    shape = cache.disk_stats()
    assert shape["entries"] == 3 and shape["bytes"] > 0
    assert cache.clear() == 3
    assert cache.disk_stats()["entries"] == 0


def test_register_metrics_probe(tmp_path):
    from repro.kernel.scheduler import Simulator

    sim = Simulator(seed=1, trace=False)
    cache = RunCache(tmp_path)
    unregister = cache.register_metrics(sim.metrics)
    cache.get("0" * 64)
    probe = sim.metrics.snapshot()["probes"]["experiments.cache"]
    assert probe["misses"] == 1
    unregister()
    assert "experiments.cache" not in sim.metrics.snapshot()["probes"]


# ---------------------------------------------------------------------------
# Policy resolution
# ---------------------------------------------------------------------------

def test_resolve_cache_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv(cache_mod.CACHE_ON_ENV, raising=False)
    monkeypatch.delenv(cache_mod.CACHE_OFF_ENV, raising=False)
    assert resolve_cache(None) is None                  # default: off
    assert resolve_cache(False) is None
    assert isinstance(resolve_cache(True), RunCache)
    with pytest.raises(ExperimentError):
        resolve_cache("yes")
    monkeypatch.setenv(cache_mod.CACHE_ON_ENV, "1")
    assert isinstance(resolve_cache(None), RunCache)    # env turns it on
    monkeypatch.setenv(cache_mod.CACHE_OFF_ENV, "1")
    assert resolve_cache(None) is None                  # off wins
    assert resolve_cache(True) is None                  # ... even over True
    explicit = RunCache(tmp_path)
    assert resolve_cache(explicit) is explicit          # instance always wins


# ---------------------------------------------------------------------------
# sweep() integration
# ---------------------------------------------------------------------------

def test_sweep_cold_then_warm_replays_identically(tmp_path):
    cache = RunCache(tmp_path)
    points = grid(knob=[1, 2, 3])
    cold = sweep("X", "t", run_one_linear, points, seeds=(0, 1), cache=cache)
    warm = sweep("X", "t", run_one_linear, points, seeds=(0, 1), cache=cache)
    assert warm.rows == cold.rows
    assert warm.columns == cold.columns
    assert cold.meta["computed"] == 6 and cold.meta["cached"] == 0
    assert warm.meta["computed"] == 0 and warm.meta["cached"] == 6
    assert warm.meta["cache"]["hit_rate"] == 1.0


def test_sweep_incremental_point_edit_recomputes_only_new_points(tmp_path):
    cache = RunCache(tmp_path)
    sweep("X", "t", run_one_linear, grid(knob=[1, 2]), cache=cache)
    grown = sweep("X", "t", run_one_linear, grid(knob=[1, 2, 5]), cache=cache)
    assert grown.meta["cached"] == 2 and grown.meta["computed"] == 1
    assert grown.column("value") == [10, 20, 50]


def test_sweep_lambda_is_uncacheable_but_correct(tmp_path):
    cache = RunCache(tmp_path)
    result = sweep("X", "t", lambda seed, k: {"v": k}, grid(k=[1, 2]),
                   cache=cache)
    again = sweep("X", "t", lambda seed, k: {"v": k}, grid(k=[1, 2]),
                  cache=cache)
    assert result.rows == again.rows
    assert result.meta["cache"]["uncacheable"] == 2
    assert cache.disk_stats()["entries"] == 0


def test_sweep_telemetry_rides_through_the_cache(tmp_path):
    cache = RunCache(tmp_path)
    cold = sweep("X", "t", run_one_telemetry, grid(k=[1, 2]), cache=cache)
    warm = sweep("X", "t", run_one_telemetry, grid(k=[1, 2]), cache=cache)
    assert cold.telemetry == [{"events_executed": 100},
                              {"events_executed": 200}]
    assert warm.telemetry == cold.telemetry
    assert warm.meta["cached"] == 2


def run_one_telemetry(seed, k):
    return {"v": k, "telemetry": {"events_executed": k * 100}}


def test_sweep_cache_invalidated_by_schema_version(tmp_path, monkeypatch):
    cache = RunCache(tmp_path)
    sweep("X", "t", run_one_linear, grid(knob=[1]), cache=cache)
    monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION",
                        CACHE_SCHEMA_VERSION + 1)
    bumped = sweep("X", "t", run_one_linear, grid(knob=[1]), cache=cache)
    assert bumped.meta["cached"] == 0 and bumped.meta["computed"] == 1

