"""LPC benchmark: real workloads, end-to-end and per-layer metrics.

    python bench/run.py [--workload W ...] [--seed S]
                        [--repeats N | --seconds T] [--trace 0|1 | --no-trace]
                        [--smoke] [--out FILE]
    python bench/run.py compare A.json B.json

Each run of a workload is a fresh ``bench/child.py`` process, one at a
time, round-robin across the chosen workloads, with ``REPRO_NO_CACHE=1``
so the run cache never replays a result.  Round ``i`` feeds every
workload the input seed ``S + SEED_STRIDE * i``, so the medians are over
several inputs rather than one.  There are ``--repeats`` rounds, or as
many as fit in ``--seconds``.  End-to-end metrics are medians over these
untraced runs.  With tracing on (the default) one more, profiled, run of
round 0's input per workload gives the per-layer metrics.  Every output
digest must equal the one ``bench/reference.json`` records for its input
seed, or else the first one this invocation saw for that input seed, so
the traced run re-checks round 0 in a fresh process.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``, keyed ``<workload>.<name>`` when more
than one workload ran.  ``compare`` prints both sides' medians and
quartiles, the ratio with its base, and a verdict against the bounds in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

from child import WORKLOADS
from layers import PER_LAYER_UNITS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = BENCH / "reference.json"

CHILD_TIMEOUT_S = 60.0
DEFAULT_REPEATS = 7
#: Distance between the input seeds of consecutive rounds; prime, so the
#: inputs of nearby ``--seed`` values do not overlap.
SEED_STRIDE = 100_003
#: Every end-to-end measure the report prints; ``BENCHMARK.json`` bounds
#: the steady ones (raw wall and CPU seconds follow the host's drift).
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "cpu_rel": "ratio",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def run_child(workload: str, seed: int, *, traced: bool = False,
              smoke: bool = False) -> Dict[str, Any]:
    """One child run: its JSON record, or ``{"error": ...}``."""
    cmd = [sys.executable, str(BENCH / "child.py"), workload,
           "--seed", str(seed)]
    cmd += ["--trace"] if traced else []
    cmd += ["--smoke"] if smoke else []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), REPRO_NO_CACHE="1",
               PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"seed": seed, "error": f"timed out after {CHILD_TIMEOUT_S:g} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"seed": seed, "error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def schedule(repeats: int, seconds: Optional[float]) -> Iterator[int]:
    """Round indices 0, 1, 2, ...: ``repeats`` of them, or as many as fit
    in ``seconds`` judging by the mean round so far (at least one)."""
    start = time.monotonic()
    done = 0
    while True:
        yield done
        done += 1
        if seconds is None:
            if done >= repeats:
                return
        elif (time.monotonic() - start) * (done + 1) / done > seconds:
            return


def quartiles(values: Sequence[float]) -> Dict[str, Any]:
    """Median, first and third quartile, and sample count."""
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def check_digests(records: List[Dict[str, Any]],
                  reference: Dict[str, str]) -> List[str]:
    """Mark each record whose digest differs from its input seed's
    reference (``reference`` is extended with first sightings); return
    every failure message."""
    errors = []
    for record in records:
        if "error" not in record and reference.setdefault(
                str(record["seed"]), record["digest"]) != record["digest"]:
            record["error"] = "output digest differs from the reference"
        if "error" in record:
            errors.append(f"seed {record['seed']}: {record['error']}")
    return errors


def summarise(runs: List[Dict[str, Any]], traced: Optional[Dict[str, Any]],
              reference: Dict[str, str]) -> Dict[str, Any]:
    """Check every run's digest and fold the runs into metrics."""
    records = runs + ([traced] if traced is not None else [])
    errors = check_digests(records, reference)
    good = [r for r in runs if "error" not in r]
    summary: Dict[str, Any] = {
        "attempted": len(records), "failed": len(errors),
        "fail_rate": len(errors) / len(records), "errors": errors,
        "end_to_end": {name: {**quartiles([r[name] for r in good]),
                              "unit": unit}
                       for name, unit in END_TO_END_UNITS.items() if good},
        "per_layer": {},
        "runs": runs,
    }
    if traced is not None and "error" not in traced:
        layer = dict(traced["layers"])
        same_input = [r["wall_s"] for r in good if r["seed"] == traced["seed"]]
        if same_input:
            layer["trace.overhead"] = (layer["trace.wall_s"] /
                                       statistics.median(same_input))
        summary["per_layer"] = {name: {"value": layer[name], "unit": unit}
                                for name, unit in PER_LAYER_UNITS.items()
                                if name in layer}
    return summary


def print_report(report: Dict[str, Any]) -> None:
    workloads = report["workloads"]
    print(f"{'workload':18} {'metric':12} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'n':>3}  unit")
    for name, w in workloads.items():
        for metric, m in w["end_to_end"].items():
            print(f"{name:18} {metric:12} {m['median']:10.4f} {m['q1']:10.4f} "
                  f"{m['q3']:10.4f} {m['n']:3d}  {m['unit']}")
        print(f"{name:18} {'fail_rate':12} {w['fail_rate']:10.4f} "
              f"{'':10} {'':10} {w['attempted']:3d}  fraction of runs")
        for error in w["errors"]:
            print(f"{name:18} failure: {error}")
    print("note: medians and quartiles only; with fewer than 20 runs no "
          "tail percentile has 10 samples beyond it")
    traced = [n for n, w in workloads.items() if w["per_layer"]]
    if not traced:
        return
    print()
    print(f"{'per-layer (one profiled run)':28} {'unit':13}"
          + "".join(f" {n[:12]:>12}" for n in traced))
    for metric, unit in PER_LAYER_UNITS.items():
        cells = []
        for n in traced:
            entry = workloads[n]["per_layer"].get(metric)
            cells.append(f" {entry['value']:12.5g}" if entry else f" {'-':>12}")
        print(f"{metric:28} {unit:13}" + "".join(cells))


def result_line(report: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The final stdout object: per-layer metrics when traced, else the
    end-to-end ones, named as ``BENCHMARK.json`` names them."""
    spec = json.loads(SPEC_PATH.read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    workloads = report["workloads"]
    metrics: Dict[str, Any] = {}
    for workload, w in workloads.items():
        for name in names:
            entry = w["per_layer" if trace else "end_to_end"].get(name)
            if entry is not None:
                key = name if len(workloads) == 1 else f"{workload}.{name}"
                metrics[key] = {"value": entry.get("value", entry.get("median")),
                                "unit": entry["unit"]}
    failed = sum(w["failed"] for w in workloads.values())
    complete = len(metrics) == len(names) * len(workloads)
    return {"correct": failed == 0 and complete,
            "attempted": sum(w["attempted"] for w in workloads.values()),
            "failed": failed, "metrics": metrics}


def measure(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    workloads = args.workload or list(WORKLOADS)
    seeds = {w: WORKLOADS[w].seed if args.seed is None else args.seed
             for w in workloads}
    committed = (json.loads(REFERENCE_PATH.read_text())
                 if REFERENCE_PATH.is_file() and not args.smoke else {})
    runs: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    for index in schedule(args.repeats, args.seconds):
        for w in workloads:
            runs[w].append(run_child(w, seeds[w] + SEED_STRIDE * index,
                                     smoke=args.smoke))
    traced = {w: run_child(w, seeds[w], traced=True, smoke=args.smoke)
              for w in workloads} if args.trace else {}
    report = {
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "smoke": args.smoke, "repeats": args.repeats, "seconds": args.seconds,
        "seeds": seeds,
        "workloads": {w: summarise(runs[w], traced.get(w),
                                   dict(committed.get(w, {})))
                      for w in workloads},
    }
    print_report(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    line = result_line(report, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def compare(path_a: str, path_b: str) -> int:
    """Verdict per workload and end-to-end metric, B against base A."""
    a, b = (json.loads(Path(p).read_text())["workloads"]
            for p in (path_a, path_b))
    spec = json.loads(SPEC_PATH.read_text())
    regressions = 0
    print(f"{'workload':18} {'metric':12} {'A median [q1, q3]':>28} "
          f"{'B median [q1, q3]':>28} {'B/A':>6}  verdict")
    for workload in (w for w in a if w in b):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            pa = a[workload]["end_to_end"].get(name)
            pb = b[workload]["end_to_end"].get(name)
            if pa is None or pb is None:
                print(f"{workload:18} {name:12} missing on one side")
                regressions += 1
                continue
            ratio = pb["median"] / pa["median"]
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            spread = (pa["q3"] - pa["q1"]) / pa["median"]
            if spread > bound:
                verdict = f"unresolved (A spread {spread:.1%} > bound {bound:.0%})"
            elif worse > bound:
                verdict = f"regression (> {bound:.0%} worse)"
                regressions += 1
            else:
                verdict = "better" if -worse > bound else "within bound"
            side = "{median:.4g} [{q1:.4g}, {q3:.4g}]"
            print(f"{workload:18} {name:12} {side.format(**pa):>28} "
                  f"{side.format(**pb):>28} {ratio:6.3f}  {verdict} "
                  f"(base: A = {pa['median']:.4g} {metric['unit']})")
    return 1 if regressions else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        ns = parser.parse_args(argv[1:])
        return compare(ns.a, ns.b)
    parser = argparse.ArgumentParser(
        description="LPC benchmark: end-to-end and per-layer metrics")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int,
                        help="one seed for every workload (default: each "
                             "workload's own)")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="rounds, each with new input seeds")
    parser.add_argument("--seconds", type=float,
                        help="run as many rounds as fit in this many "
                             "seconds instead of --repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 (default): one more, profiled, run per "
                             "workload; the result line holds its per-layer "
                             "metrics")
    parser.add_argument("--no-trace", dest="trace", action="store_const",
                        const=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, no committed reference digests")
    parser.add_argument("--out", help="write the full report as JSON here")
    return measure(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
