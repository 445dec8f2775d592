"""Tests for the sweep utility and the all-in-one report."""

from __future__ import annotations

import pytest

from repro.experiments.harness import ExperimentResult
from repro.experiments.report import _QUICK_OVERRIDES, build_report, run_all
from repro.experiments.sweeps import averaged_over_seeds, grid, sweep
from repro.kernel.errors import ExperimentError


# ---------------------------------------------------------------------------
# grid / sweep
# ---------------------------------------------------------------------------

def test_grid_cartesian_product():
    points = grid(a=[1, 2], b=["x", "y"])
    assert len(points) == 4
    assert {"a": 2, "b": "y"} in points


def test_grid_empty_rejected():
    with pytest.raises(ExperimentError):
        grid()


def test_sweep_runs_every_point_and_seed():
    calls = []

    def run_one(seed, knob):
        calls.append((seed, knob))
        return {"value": knob * 10 + seed}

    result = sweep("X", "t", run_one, grid(knob=[1, 2]), seeds=(0, 1))
    assert len(result.rows) == 4
    assert sorted(calls) == [(0, 1), (0, 2), (1, 1), (1, 2)]
    assert result.column("value") == [10, 11, 20, 21]


def test_sweep_column_selection():
    result = sweep("X", "t", lambda seed, k: {"m": k, "junk": 0},
                   grid(k=[3]), columns=("k", "m"))
    assert result.columns == ["k", "m"]
    assert result.rows[0] == {"k": 3, "m": 3}


def test_sweep_deterministic_per_seed():
    from repro.kernel.scheduler import Simulator

    def run_one(seed, n):
        sim = Simulator(seed=seed)
        return {"draw": float(sim.rng("x").random()) + n}

    a = sweep("X", "t", run_one, grid(n=[0]), seeds=(5,))
    b = sweep("X", "t", run_one, grid(n=[0]), seeds=(5,))
    assert a.rows == b.rows


def test_averaged_over_seeds():
    result = ExperimentResult("X", "t", ["seed", "knob", "metric"])
    for seed in (0, 1):
        for knob in (1, 2):
            result.add_row(seed=seed, knob=knob, metric=knob * 10 + seed)
    averaged = averaged_over_seeds(result, group_by=("knob",),
                                   metrics=("metric",))
    by_knob = {row["knob"]: row for row in averaged.rows}
    assert by_knob[1]["mean_metric"] == pytest.approx(10.5)
    assert by_knob[2]["mean_metric"] == pytest.approx(20.5)
    assert by_knob[1]["replicates"] == 2


def test_sweep_point_wins_key_clash_over_measured_row():
    """A parameter point's value takes precedence over a same-named key in
    the measured row, so callers can rename without surprises."""
    result = sweep("X", "t",
                   lambda seed, knob: {"knob": 999, "metric": knob},
                   grid(knob=[1, 2]))
    assert result.column("knob") == [1, 2]
    assert result.column("metric") == [1, 2]


def test_sweep_seed_wins_over_measured_seed():
    result = sweep("X", "t", lambda seed, k: {"seed": -1, "v": k},
                   grid(k=[5]), seeds=(7,))
    assert result.rows[0]["seed"] == 7


def test_sweep_empty_points_rejected():
    with pytest.raises(ExperimentError):
        sweep("X", "t", lambda seed: {"v": 1}, points=[])


def test_sweep_parallel_rows_identical_to_serial():
    """workers=N must give byte-identical rows in identical order — the
    determinism contract the bench gate also enforces on E2."""
    from repro.kernel.scheduler import Simulator

    def run_one(seed, n):
        sim = Simulator(seed=seed)
        return {"draw": float(sim.rng("x").random()) + n, "n2": n * n}

    points = grid(n=[0, 1, 2, 3])
    serial = sweep("X", "t", run_one, points, seeds=(3, 4))
    parallel = sweep("X", "t", run_one, points, seeds=(3, 4), workers=4)
    assert parallel.rows == serial.rows
    assert parallel.columns == serial.columns


def test_sweep_single_task_stays_serial():
    # workers>1 with one task short-circuits to the serial path.
    result = sweep("X", "t", lambda seed, k: {"v": k}, grid(k=[1]),
                   workers=8)
    assert result.rows == [{"seed": 0, "k": 1, "v": 1}]


def test_sweep_rejects_negative_and_non_int_workers():
    with pytest.raises(ExperimentError):
        sweep("X", "t", lambda seed, k: {"v": k}, grid(k=[1]), workers=-1)
    with pytest.raises(ExperimentError):
        sweep("X", "t", lambda seed, k: {"v": k}, grid(k=[1]), workers=True)


def test_sweep_without_fork_warns_once_and_records_serial(monkeypatch):
    import repro.experiments.sweeps as sweeps_mod

    monkeypatch.setattr(sweeps_mod, "_fork_available", lambda: False)
    monkeypatch.setattr(sweeps_mod, "_WARNED_NO_FORK", False)
    with pytest.warns(RuntimeWarning, match="fork.*unavailable"):
        result = sweep("X", "t", lambda seed, k: {"v": k},
                       grid(k=[1, 2]), workers=4)
    assert result.rows == [{"seed": 0, "k": 1, "v": 1},
                           {"seed": 0, "k": 2, "v": 2}]
    assert result.meta["parallel"] is False
    assert result.meta["workers"] == 4
    # Second sweep: same fallback, but the warning fires only once.
    import warnings as warnings_mod
    with warnings_mod.catch_warnings():
        warnings_mod.simplefilter("error")
        again = sweep("X", "t", lambda seed, k: {"v": k},
                      grid(k=[1, 2]), workers=4)
    assert again.meta["parallel"] is False


def test_sweep_parallel_records_meta():
    result = sweep("X", "t", lambda seed, k: {"v": k}, grid(k=[1, 2, 3]),
                   workers=2)
    assert result.meta["parallel"] is True
    assert result.meta["computed"] == 3 and result.meta["cached"] == 0


def test_sweep_parallel_records_per_chunk_walls():
    result = sweep("X", "t", lambda seed, k: {"v": k}, grid(k=[1, 2, 3]),
                   workers=2)
    # 3 tasks at the adaptive chunksize (1) = 3 chunks, each with a
    # worker-measured wall time, indexed by chunk regardless of the
    # imap_unordered completion order.  Table assembly is folded into
    # chunk arrival; the overlap saving rides along.
    walls = result.meta["chunk_walls"]
    per_chunk = walls["per_chunk"]
    assert len(per_chunk) == 3
    assert all(isinstance(w, float) and w >= 0.0 for w in per_chunk)
    assert isinstance(walls["assemble_overlap_s"], float)
    assert walls["assemble_overlap_s"] >= 0.0


def test_sweep_serial_has_no_chunk_walls():
    result = sweep("X", "t", lambda seed, k: {"v": k}, grid(k=[1, 2]))
    assert "chunk_walls" not in result.meta


def test_sweep_unpicklable_row_raises_clear_error():
    import threading

    def run_one(seed, k):
        return {"v": threading.Lock()}

    with pytest.raises(ExperimentError, match="cannot cross the process"):
        sweep("X", "t", run_one, grid(k=[1, 2, 3]), workers=2)


def test_sweep_unpicklable_point_raises_clear_error():
    import threading

    from repro.experiments.e2_interference import _measure_density_row

    # A picklable run_one takes the shared-pool path, where point values
    # must survive pickling too.
    with pytest.raises(ExperimentError, match="picklable"):
        sweep("X", "t", _measure_density_row,
              [{"pairs": threading.Lock(), "channel_plan": "x"},
               {"pairs": 1, "channel_plan": "y"}], workers=2)


def _run_one_boom(seed, k):
    raise ValueError("boom")


def _run_one_square(seed, k):
    return {"v": k * k}


def test_sweep_failure_resets_shared_pool():
    """A failure escaping pool.map must tear the shared pool down so the
    next sweep re-forks instead of running on a broken pool."""
    import repro.experiments.sweeps as sweeps_mod

    with pytest.raises(ValueError, match="boom"):
        sweep("X", "t", _run_one_boom, grid(k=[1, 2, 3]), workers=2)
    assert sweeps_mod._SHARED_POOL is None
    # The next parallel sweep gets a fresh pool and works normally.
    ok = sweep("X", "t", _run_one_square, grid(k=[1, 2, 3]), workers=2)
    assert ok.column("v") == [1, 4, 9]
    assert ok.meta["parallel"] is True


#: A sweep whose worker for point k=1 exits abruptly, then a sweep that
#: must still work.  Run in a fresh interpreter with a timeout, because
#: a pool that loses the dead worker's task hangs instead of failing.
_DYING_SWEEP = """
import os
from repro.experiments.sweeps import sweep
from repro.kernel.errors import ExperimentError

def run_one(seed, k):
    if k == 1:
        os._exit(3)
    return {"v": k}

try:
    sweep("X", "t", run_one, [{"k": 0}, {"k": 1}], workers=2, cache=False)
except ExperimentError as exc:
    print("ExperimentError:", exc)
print(sweep("X", "t", run_one, [{"k": 0}, {"k": 2}], workers=2,
            cache=False).column("v"))
"""


def test_sweep_worker_death_raises_and_the_next_sweep_works():
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    src_dir = pathlib.Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    out = subprocess.run([sys.executable, "-c", _DYING_SWEEP], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "ExperimentError: a sweep worker process died before returning "
        "its rows (killed or exited abruptly; see its stderr) — the sweep "
        "cannot continue",
        "[0, 2]"]


def test_averaged_over_seeds_aggregates_telemetry():
    result = ExperimentResult("X", "t", ["seed", "knob", "metric"])
    telemetry = []
    for seed in (0, 1):
        for knob in (1, 2):
            result.add_row(seed=seed, knob=knob, metric=knob * 10 + seed)
            telemetry.append({
                "sim_time": 5.0, "events_executed": 100 * knob,
                "records": 10, "records_dropped": 0,
                "spans": 4, "spans_open": 0,
                "issues_by_layer": {"resource": knob},
                "issues_by_column": {"device": knob},
                "metrics": {"counters": {"mac.queue_drops": seed}},
            })
    result.telemetry = telemetry
    averaged = averaged_over_seeds(result, group_by=("knob",),
                                   metrics=("metric",))
    assert len(averaged.telemetry) == len(averaged.rows)
    by_knob = {row["knob"]: entry
               for row, entry in zip(averaged.rows, averaged.telemetry)}
    assert by_knob[1]["replicates"] == 2
    assert by_knob[1]["events_executed"] == 200
    assert by_knob[2]["events_executed"] == 400
    assert by_knob[1]["issues_by_layer"] == {"resource": 2}
    assert by_knob[1]["metrics"]["counters"] == {"mac.queue_drops": 1}


def test_averaged_over_seeds_without_telemetry_stays_empty():
    result = ExperimentResult("X", "t", ["seed", "knob", "metric"])
    result.add_row(seed=0, knob=1, metric=1.0)
    averaged = averaged_over_seeds(result, group_by=("knob",),
                                   metrics=("metric",))
    assert averaged.telemetry == []


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_quick_overrides_reference_real_experiments():
    from repro.experiments import list_experiments

    known = set(list_experiments())
    assert set(_QUICK_OVERRIDES) <= known


def test_run_all_subset():
    results = run_all(only=["E4-hijack", "F1-F5"])
    assert [r.experiment_id for r in results] == ["E4-hijack", "F1-F5"]


def test_run_all_bad_budget():
    with pytest.raises(ExperimentError):
        run_all(budget="luxurious")


def test_build_report_renders_sections():
    text = build_report(only=["E3-range-table", "E4-hijack"])
    assert "Reproduction report" in text
    assert "E3-range-table" in text and "E4-hijack" in text
    assert "wall time" in text
