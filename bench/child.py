"""One benchmark run of one workload, in a fresh process.

    PYTHONPATH=src python bench/child.py WORKLOAD --seed S [--trace] [--smoke]

Set-up spans from before ``import repro`` to the first run call and is
measured in CPU seconds; the run phase is measured both in wall and in
CPU seconds.  CPU seconds count this process and any child it waited
for, so time the host gives to other processes is left out.  A fixed
calibration loop, stdlib only, runs before set-up and after the run;
``cpu_rel`` is the run's CPU time over the loop's median CPU time, which
cancels most of the host's drift in CPU speed.

The last stdout line is one JSON record: ``setup_s``, ``wall_s``,
``cpu_s``, ``cal_s``, ``cpu_rel``, ``peak_rss_mb`` and the sha256
``digest`` of the run's output.  With ``--trace`` the run phase executes
under cProfile with every simulator that runs recorded, the record
gains the per-layer metrics, and ``bench/out/<workload>.layers.json``
plus ``<workload>.pstats`` are written.  ``bench/run.py`` drives this
script.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import heapq
import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, List, NamedTuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
#: Calibration loops timed before set-up, and again after the run.
CALIBRATION_REPS = 4


class Workload(NamedTuple):
    seed: int                                      # default seed
    build: Callable[[int, bool], Callable[[], Any]]  # (seed, smoke) -> run
    outcome: Callable[[Any], Any]                  # run's result -> output


def _rows(count: int) -> Callable[[Any], Any]:
    """Output of an experiment: its table rows, which must number ``count``."""
    def outcome(result: Any) -> Any:
        if len(result.rows) != count:
            raise RuntimeError(f"{result.experiment_id}: expected {count} "
                               f"rows, got {len(result.rows)}")
        return result.rows
    return outcome


def _deliveries(room: Any) -> Any:
    """Output of a broadcast room: the sorted delivery log and every MAC's
    stats.  The log must be non-empty and agree with the MACs' receive
    counters."""
    received = sum(mac.stats["rx_frames"] for mac in room.macs)
    if not room.deliveries or received != len(room.deliveries):
        raise RuntimeError(f"broadcast room logged {len(room.deliveries)} "
                           f"deliveries but its MACs received {received}")
    return {"deliveries": sorted(room.deliveries),
            "stats": [mac.stats for mac in room.macs]}


def _experiment(experiment_id: str, full: Dict[str, Any],
                smoke: Dict[str, Any]) -> Callable[[int, bool], Callable[[], Any]]:
    def build(seed: int, is_smoke: bool) -> Callable[[], Any]:
        from repro.experiments.harness import run_experiment
        kwargs = smoke if is_smoke else full
        return lambda: run_experiment(experiment_id, seed=seed, **kwargs)
    return build


def _broadcast(until: float, smoke_until: float, movers: int,
               ) -> Callable[[int, bool], Callable[[], Any]]:
    def build(seed: int, is_smoke: bool) -> Callable[[], Any]:
        from repro.env.mobility import RandomWaypoint
        from repro.experiments.workloads import broadcast_room
        room = broadcast_room(200 if is_smoke else 1000, seed=seed)
        for mac in room.macs[:movers]:
            RandomWaypoint(room.sim, room.world, mac.address).start()
        horizon = smoke_until if is_smoke else until

        def run() -> Any:
            room.sim.run(until=horizon)
            return room
        return run
    return build


WORKLOADS: Dict[str, Workload] = {
    "e9_week": Workload(42, _experiment("E9", {}, {"horizon": 20.0}),
                        _rows(2)),
    "e2_density": Workload(2, _experiment("E2", {"duration": 3.0},
                                          {"duration": 0.2}), _rows(12)),
    "e11_cells": Workload(7, _experiment(
        "E11", {"cells": 8, "stations_per_cell": 50, "horizon": 10.0},
        {"cells": 8, "stations_per_cell": 10, "horizon": 0.5}), _rows(8)),
    "broadcast_static": Workload(7, _broadcast(14.0, 2.0, 0), _deliveries),
    "broadcast_mobile": Workload(7, _broadcast(6.0, 1.0, 100), _deliveries),
}


def digest(output: Any) -> str:
    """sha256 of the canonical JSON form of ``output``."""
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibrate(reps: int = CALIBRATION_REPS) -> List[float]:
    """CPU seconds of each of ``reps`` runs of a fixed heap, dict and
    float loop that touches no repro code."""
    times = []
    for _ in range(reps):
        start = time.process_time()
        heap: List[tuple] = []
        table: Dict[int, int] = {}
        acc = 0.0
        for i in range(40_000):
            key = (i * 7919) % 10007
            heapq.heappush(heap, (key * 0.5, i))
            table[key] = table.get(key, 0) + 1
            acc += key ** 0.5
        while heap:
            acc += heapq.heappop(heap)[0]
        times.append(time.process_time() - start)
    return times


@contextmanager
def _profiling(profile: cProfile.Profile, sims: Dict[int, Any]):
    """Profile the block and record in ``sims`` every simulator whose
    ``run`` it calls."""
    from repro.kernel.scheduler import Simulator

    original = Simulator.run

    def recording_run(sim: Any, *args: Any, **kwargs: Any) -> int:
        sims[id(sim)] = sim
        return original(sim, *args, **kwargs)

    Simulator.run = recording_run
    profile.enable()
    try:
        yield
    finally:
        profile.disable()
        Simulator.run = original


def _layer_record(name: str, seed: int, wall_s: float,
                  profile: cProfile.Profile, sims: List[Any]) -> Dict[str, Any]:
    """Per-layer metrics of a profiled run; writes the trace artifacts."""
    import pstats

    import layers
    import repro

    stats = pstats.Stats(profile).stats
    repro_dir = os.path.dirname(repro.__file__)
    metrics: Dict[str, Any] = layers.layer_metrics(
        stats, layers.repro_owner(repro_dir))
    metrics.update(layers.sim_counters(sims))
    metrics["trace.wall_s"] = wall_s
    os.makedirs(OUT_DIR, exist_ok=True)
    profile.dump_stats(os.path.join(OUT_DIR, f"{name}.pstats"))
    artifact = {"workload": name, "seed": seed, "metrics": metrics,
                "top_modules": layers.top_modules(
                    stats, layers.repro_owner(repro_dir, by="module"))}
    with open(os.path.join(OUT_DIR, f"{name}.layers.json"), "w") as fh:
        json.dump(artifact, fh, indent=1, sort_keys=True)
    return metrics


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    calibration = calibrate()
    start_cpu = cpu_seconds()
    run = workload.build(args.seed, args.smoke)
    setup_s = cpu_seconds() - start_cpu
    profile, sims = cProfile.Profile(), {}
    with _profiling(profile, sims) if args.trace else nullcontext():
        start, start_cpu = time.perf_counter(), cpu_seconds()
        result = run()
        wall_s = time.perf_counter() - start
        cpu_s = cpu_seconds() - start_cpu
    # Read before the output is digested, which allocates for itself.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cal_s = statistics.median(calibration + calibrate())
    record: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed,
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "cal_s": cal_s, "cpu_rel": cpu_s / cal_s,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "digest": digest(workload.outcome(result)),
    }
    if args.trace:
        record["layers"] = _layer_record(args.workload, args.seed, wall_s,
                                         profile, list(sims.values()))
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
