"""Command-line interface: ``python -m repro``.

Subcommands:

* ``figures [N]`` — render the paper's figures (all, or one of 1-5).
* ``experiments`` — list every registered experiment id.
* ``run <id> [--seed S]`` — run one experiment and print its table.
* ``demo [--seed S] [--horizon T]`` — run the instrumented Smart Projector
  scenario and print the layered LPC report plus paper coverage.
* ``report --lpc`` — run the scripted-week scenario and print the
  per-LPC-layer telemetry report (issue grid plus metrics).
  ``--format json`` emits the same grid machine-readably; ``--stream``
  renders from a live streaming aggregator instead of replaying stored
  records (byte-identical either way).
* ``bench`` — run every row of :data:`BENCHES`, write one
  ``BENCH_<name>.json`` per row, and print one verdict per gate; exits 1
  when any gate fails.  ``bench --help`` lists every gate with its
  threshold and reason.
* ``cache`` — inspect (``stats``) or empty (``clear``) the
  content-addressed run cache behind incremental sweeps; honours
  ``REPRO_CACHE_DIR``.
* ``check`` — the determinism + layer-boundary static pass
  (``repro.checks``); exits 1 on unsuppressed findings.  ``--format
  json`` emits machine-readable findings, ``--list-rules`` prints the
  rule catalogue, ``--write-baseline`` drafts a suppression template.

``run`` and ``demo`` accept ``--trace CATEGORY_PREFIX`` and
``--trace-out FILE``: trace records (and completed spans) stream to the
file while the command runs — one JSON object per line by default, or a
packed struct-of-arrays ``.npz`` with ``--telemetry-format columnar``.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import pathlib
import sys
from typing import Iterator, List, Optional

from .checks.bench import bench_checks
from .core.analysis import compare_with_paper
from .core.figures import ALL_FIGURES, render_all
from .experiments import (bench, get_experiment, list_experiments,
                          run_experiment)
from .experiments.bench import Bench, Gate
from .kernel.errors import ExperimentError, ReproError


def _cmd_figures(args: argparse.Namespace) -> int:
    if args.number is None:
        print(render_all())
        return 0
    renderer = ALL_FIGURES.get(args.number)
    if renderer is None:
        print(f"no figure {args.number}; choose from {sorted(ALL_FIGURES)}",
              file=sys.stderr)
        return 2
    print(renderer())
    return 0


def _cmd_experiments(_args: argparse.Namespace) -> int:
    for experiment_id in list_experiments():
        print(experiment_id)
    return 0


@contextlib.contextmanager
def _trace_export(args: argparse.Namespace) -> Iterator[None]:
    """Stream records/spans to ``--trace-out`` while the body runs.

    Installs process-default tracer hooks (every simulator built inside the
    command picks them up) and removes them afterwards, so nothing leaks
    into later in-process callers.
    """
    prefix = getattr(args, "trace", None)
    out = getattr(args, "trace_out", None)
    if prefix is None and out is None:
        yield
        return
    from .kernel import trace as ktrace

    telemetry_format = getattr(args, "telemetry_format", "jsonl")
    if prefix is None:
        prefix = ""  # empty prefix = everything
    if telemetry_format == "columnar":
        from .telemetry.columnar import ColumnarWriter

        writer = ColumnarWriter(pathlib.Path(out or "trace.npz"))
        label = "columnar"
    else:
        from .telemetry.jsonl import JsonlWriter

        writer = JsonlWriter(pathlib.Path(out or "trace.jsonl"))
        label = "JSONL"
    remove_record = ktrace.add_default_subscriber(prefix,
                                                  writer.write_record)

    def on_span(span: "ktrace.Span") -> None:
        if span.matches(prefix):
            writer.write_span(span)

    remove_span = ktrace.add_default_span_hook(on_span)
    try:
        yield
    finally:
        remove_record()
        remove_span()
        writer.close()
        print(f"trace: {writer.lines} {label} lines -> {writer.path}",
              file=sys.stderr)


def _add_trace_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="CATEGORY_PREFIX", default=None,
                        help="stream trace records/spans under this "
                             "category prefix ('' = everything)")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="trace destination (default: trace.jsonl, "
                             "or trace.npz with --telemetry-format "
                             "columnar)")
    parser.add_argument("--telemetry-format", choices=("jsonl", "columnar"),
                        default="jsonl",
                        help="trace export format: line-per-object JSONL "
                             "(default) or packed columnar .npz")


@contextlib.contextmanager
def _cache_policy(args: argparse.Namespace) -> Iterator[None]:
    """Apply ``--cache`` / ``--no-cache`` for the body via the env knobs
    every ``sweep()`` consults, restoring them afterwards so in-process
    callers (tests) see no leakage."""
    import os

    from .experiments.cache import CACHE_OFF_ENV, CACHE_ON_ENV

    updates = {}
    if getattr(args, "cache", False):
        updates[CACHE_ON_ENV] = "1"
    if getattr(args, "no_cache", False):
        updates[CACHE_OFF_ENV] = "1"
    saved = {name: os.environ.get(name) for name in updates}
    os.environ.update(updates)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        params = inspect.signature(
            get_experiment(args.experiment_id)).parameters
    except ExperimentError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    kwargs = {}
    # An experiment without a seed parameter runs with its defaults.
    if args.seed is not None and "seed" in params:
        kwargs["seed"] = args.seed
    if args.shards is not None:
        if "shards" not in params:
            print(f"error: experiment {args.experiment_id!r} is not "
                  "shard-aware (no 'shards' parameter)", file=sys.stderr)
            return 2
        kwargs["shards"] = args.shards
    with _trace_export(args), _cache_policy(args):
        try:
            result = run_experiment(args.experiment_id, **kwargs)
        except ExperimentError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    print(result.format_table())
    if result.meta.get("cache") is not None:
        cache_meta = result.meta["cache"]
        print(f"cache: {cache_meta['hits']:g} hits / "
              f"{cache_meta['misses']:g} misses "
              f"(hit rate {cache_meta['hit_rate']:.1%})", file=sys.stderr)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .experiments.e9_analysis import _scripted_week

    with _trace_export(args):
        room, model, _instrument = _scripted_week(seed=args.seed,
                                                  horizon=args.horizon)
    print(model.report())
    print()
    print(compare_with_paper(model.concerns()).summary())
    print(f"\nframes projected during the scripted week: "
          f"{room.projector.frames_displayed}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Executable reproduction of 'A Conceptual Model for "
                    "Pervasive Computing' (Ciarletta & Dima, 2000)")
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="render the paper's figures")
    figures.add_argument("number", nargs="?", type=int, default=None,
                         help="figure number 1-5 (default: all)")
    figures.set_defaults(func=_cmd_figures)

    experiments = sub.add_parser("experiments",
                                 help="list experiment ids")
    experiments.set_defaults(func=_cmd_experiments)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment_id")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--shards", type=int, default=None,
                     help="run the experiment's independent parts across "
                          "N worker processes; only shard-aware "
                          "experiments such as E11 accept it")
    run.add_argument("--cache", action="store_true",
                     help="replay (point, seed) pairs from the "
                          "content-addressed run cache where possible")
    run.add_argument("--no-cache", action="store_true",
                     help="force the run cache off (overrides --cache "
                          "and REPRO_CACHE)")
    _add_trace_flags(run)
    run.set_defaults(func=_cmd_run)

    demo = sub.add_parser("demo", help="instrumented Smart Projector demo")
    demo.add_argument("--seed", type=int, default=42)
    demo.add_argument("--horizon", type=float, default=240.0)
    _add_trace_flags(demo)
    demo.set_defaults(func=_cmd_demo)

    report = sub.add_parser(
        "report", help="run every experiment and print the full report")
    report.add_argument("--budget", choices=("quick", "full"),
                        default="quick")
    report.add_argument("--only", nargs="*", default=None,
                        help="subset of experiment ids")
    report.add_argument("--lpc", action="store_true",
                        help="instead: run the scripted-week scenario and "
                             "print the per-LPC-layer telemetry report")
    report.add_argument("--seed", type=int, default=42,
                        help="scenario seed (with --lpc)")
    report.add_argument("--horizon", type=float, default=240.0,
                        help="scenario horizon in seconds (with --lpc)")
    report.add_argument("--format", choices=("text", "json"),
                        default="text", dest="fmt",
                        help="with --lpc: classic text grid or the same "
                             "grid as byte-stable JSON")
    report.add_argument("--stream", action="store_true",
                        help="with --lpc: render from a streaming "
                             "aggregator folded during the run instead "
                             "of replaying stored records (byte-"
                             "identical output)")
    report.set_defaults(func=_cmd_report)

    bench_cmd = sub.add_parser(
        "bench", help="run perf microbenchmarks and write BENCH_*.json",
        epilog=bench.gate_list(BENCHES),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    bench_cmd.add_argument("--out-dir", default="benchmarks",
                           help="directory for BENCH_<name>.json files")
    bench_cmd.add_argument("--baseline",
                           default="benchmarks/baseline_kernel.json",
                           help="committed kernel baseline to gate against; "
                                "the other rows' baseline_<name>.json sit "
                                "beside it")
    bench_cmd.add_argument("--raw", default=None,
                           help="pytest --benchmark-json output to ingest "
                                "for the kernel and trace figures")
    bench_cmd.add_argument("--workers", type=int, default=4,
                           help="worker count for the parallel sweep and "
                                "checks benchmarks")
    bench_cmd.add_argument("--repeats", type=int, default=5,
                           help="repeats per kernel microbenchmark")
    bench_cmd.add_argument("--kernel-only", action="store_true",
                           help="run only the kernel row (the `make "
                                "bench-kernel` leg)")
    bench_cmd.add_argument("--update-baseline", action="store_true",
                           help="rewrite the committed baselines instead "
                                "of gating against them")
    bench_cmd.set_defaults(func=_cmd_bench)

    cache = sub.add_parser(
        "cache", help="inspect or clear the incremental-sweep run cache")
    cache.add_argument("action", choices=("stats", "clear"),
                       help="'stats' prints the on-disk shape; 'clear' "
                            "deletes every entry")
    cache.add_argument("--dir", default=None,
                       help="cache directory (default: REPRO_CACHE_DIR "
                            "or ~/.cache/repro/runs)")
    cache.set_defaults(func=_cmd_cache)

    check = sub.add_parser(
        "check", help="determinism + layer-boundary static analysis")
    check.add_argument("paths", nargs="*", default=None,
                       help="files/directories to analyse (default: src)")
    check.add_argument("--format", choices=("text", "json"),
                       default="text", dest="fmt",
                       help="findings as human text or machine JSON")
    check.add_argument("--baseline", default="checks_baseline.json",
                       help="JSON suppression file (applied when it "
                            "exists; entries need a justification)")
    check.add_argument("--jobs", type=int, default=4,
                       help="parallel analysis processes (1 = serial)")
    check.add_argument("--list-rules", action="store_true",
                       help="print the rule catalogue and exit")
    check.add_argument("--write-baseline", metavar="FILE", default=None,
                       help="write a suppression template covering the "
                            "current findings (justifications left empty "
                            "for the operator to fill in)")
    check.add_argument("--incremental", action="store_true",
                       help="reuse per-file results keyed on source "
                            "digests; only changed files (plus their "
                            "call-graph SCC region) are re-analysed")
    check.add_argument("--incremental-cache",
                       default=".repro_checks_cache.json",
                       help="cache file for --incremental (default: "
                            ".repro_checks_cache.json)")
    check.set_defaults(func=_cmd_check)

    return parser


def _cmd_report(args: argparse.Namespace) -> int:
    if args.lpc:
        import json

        from .experiments.e9_analysis import _scripted_week
        from .telemetry.report import layer_report, layer_report_data

        user_sources = {"presenter", "casual-1", "visitor-1"}
        title = (f"LPC run report — scripted week (seed={args.seed}, "
                 f"horizon={args.horizon:g}s)")
        if args.stream:
            # Fold telemetry live instead of replaying stored records:
            # default hooks catch the simulator _scripted_week builds.
            from .telemetry.streaming import StreamingAggregator

            aggregator = StreamingAggregator(user_sources=user_sources)
            remove = aggregator.install_default()
            try:
                room, _model, _instrument = _scripted_week(
                    seed=args.seed, horizon=args.horizon)
            finally:
                remove()
            source = aggregator.bind(room.sim)
        else:
            room, _model, _instrument = _scripted_week(
                seed=args.seed, horizon=args.horizon)
            source = room.sim
        if args.fmt == "json":
            data = layer_report_data(source, user_sources=user_sources,
                                     title=title)
            print(json.dumps(data, sort_keys=True, indent=2))
        else:
            print(layer_report(source, user_sources=user_sources,
                               title=title), end="")
        return 0
    if args.fmt == "json":
        print("error: --format json needs --lpc", file=sys.stderr)
        return 2
    from .experiments.report import build_report

    print(build_report(budget=args.budget, only=args.only))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .experiments.cache import RunCache

    cache = RunCache(pathlib.Path(args.dir) if args.dir else None)
    if args.action == "clear":
        removed = cache.clear()
        print(f"cache: removed {removed} entries from {cache.directory}")
        return 0
    shape = cache.disk_stats()
    print(f"directory : {shape['directory']}")
    print(f"entries   : {shape['entries']}")
    print(f"bytes     : {shape['bytes']}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .checks import RULES, run_checks, write_baseline

    if args.list_rules:
        for code, rule in sorted(RULES.items()):
            print(f"{code} [{rule.severity}] {rule.title}")
            print(f"    {rule.rationale}")
            print(f"    fix: {rule.hint}")
        return 0

    paths = [pathlib.Path(p) for p in (args.paths or ["src"])]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    baseline = pathlib.Path(args.baseline)
    cache = (pathlib.Path(args.incremental_cache)
             if args.incremental else None)
    report = run_checks(paths, baseline=baseline, jobs=args.jobs,
                        incremental_cache=cache)

    if args.write_baseline is not None:
        out = pathlib.Path(args.write_baseline)
        count = write_baseline(report.findings, out)
        print(f"baseline template: {count} entries -> {out} "
              "(fill in justifications before use)")
        return 0

    print(report.to_json() if args.fmt == "json"
          else report.format_text())
    return 0 if report.clean else 1


#: Every benchmark ``repro.cli bench`` runs, in run order, with its gates.
#: ``repro.experiments.bench`` and ``repro.checks.bench`` share layer rank
#: 7, so this entry point is the one module that may table both.
BENCHES = (
    Bench("kernel", lambda args: bench.bench_kernel(repeats=args.repeats), (
        Gate("events_per_sec", "baseline", 0.8,
             "raw events/sec within 20% of the baseline; deliberately not "
             "calibration-scaled, because host noise slows the "
             "allocation-heavy kernel loops without slowing the calibration "
             "spin, so rescaling the band misfires"),
        Gate("events_per_sec_public_schedule", "baseline", 0.8,
             "the validated public schedule path, same raw 20% band"),
        Gate("events_per_sec", "calibrated", 2.0,
             "the dispatch core must hold 2x over the pre-rewrite baseline "
             "after both sides are divided by their calibration spin, so a "
             "slower host cannot fail it and a faster one cannot hide a "
             "regressed loop"),
    ), raw=(
        ("test_kernel_event_throughput", "events_per_sec",
         bench.KERNEL_EVENTS),
        ("test_kernel_public_schedule_throughput",
         "events_per_sec_public_schedule", bench.KERNEL_EVENTS),
        ("test_machine_calibration", "calibration_ops_per_sec",
         bench.CALIBRATION_OPS),
    )),
    Bench("sweeps", lambda args: bench.bench_sweeps(workers=args.workers), (
        Gate("rows_identical", "true",
             reason="parallel sweep rows must equal serial rows on every "
                    "machine"),
        Gate("parallel_speedup", "min", 2.0, cpus=4,
             reason="a fork pool cannot beat serial execution on fewer "
                    "cores than workers, so below 4 usable cpus the ratio "
                    "is scheduling noise"),
    )),
    Bench("trace", lambda args: bench.bench_trace(repeats=args.repeats), (
        Gate("events_per_sec_disabled", "baseline", 0.95,
             figure="kernel.events_per_sec",
             reason="span plumbing on the run loop must stay free for "
                    "sweeps that never trace"),
        Gate("records_overhead_ratio", "min", 0.1,
             "within-run ratio, portable across hosts; catches an "
             "accidental O(n) scan in emit/append, not the ordinary "
             "allocation cost"),
        Gate("spans_overhead_ratio", "min", 0.1,
             "within-run ratio; catches an accidental O(n) scan in "
             "span_begin/begin_span"),
    ), raw=(
        ("test_kernel_event_throughput", "events_per_sec_disabled",
         bench.KERNEL_EVENTS),
        ("test_trace_records_throughput", "events_per_sec_records",
         bench.KERNEL_EVENTS),
        ("test_trace_spans_throughput", "events_per_sec_spans",
         bench.KERNEL_EVENTS),
    ), derive=bench.trace_ratios),
    Bench("scale", lambda args: bench.bench_scale(), (
        Gate("outcomes_identical", "true",
             reason="culled and exhaustive runs must deliver the same "
                    "frames: the audibility fast path may only be faster"),
        Gate("speedup_at_max", "min", 2.0,
             "both modes run back to back in one process, so the ratio is "
             "portable; catches culling degenerating to a full scan"),
        Gate("culled_events_per_sec_at_max", "baseline", 0.8,
             "absolute culled throughput at the largest population"),
    )),
    Bench("cache", lambda args: bench.bench_cache(), (
        Gate("rows_identical", "true",
             reason="uncached, cold and warm sweeps must produce the same "
                    "rows: the cache may only be faster"),
        Gate("warm_hit_rate", "min", 1.0,
             "a warm re-run must replay every point (key stability)"),
        Gate("warm_speedup", "min", 5.0,
             "real figures run to hundreds; 5x catches replay silently "
             "recomputing without flapping on slow disks"),
        Gate("cold_overhead_ratio", "max", 0.05,
             "key hashing, source digest and entry writes must not tax "
             "cold sweeps"),
        Gate("warm_speedup", "baseline", 0.25,
             "generous, because warm runs take milliseconds and their "
             "relative timing noise is large"),
    )),
    Bench("telemetry", lambda args: bench.bench_telemetry(), (
        Gate("summary_identical", "true",
             reason="streaming summaries must equal the record-replay "
                    "summary"),
        Gate("stream_stored_records", "max", 0,
             "stream mode must store no records"),
        Gate("stream_stored_spans", "max", 0,
             "stream mode must store no spans"),
        Gate("size_ratio", "min", 3.0,
             "columnar files must stay 3x smaller than JSONL"),
        Gate("write_speedup", "min", 2.0,
             "columnar export must stay 2x faster than JSONL, timed back "
             "to back in one process"),
        Gate("lines_identical", "true",
             reason="both exporters must write the same logical lines"),
        Gate("stream_memory_ratio", "max", 0.25,
             "streaming aggregation must stay bounded-memory against "
             "record replay"),
        Gate("events_per_sec_disabled", "baseline", 0.95,
             figure="kernel.events_per_sec",
             reason="telemetry hooks must stay free when unused; this "
                    "payload is always in-process, so the gate runs only "
                    "against an in-process kernel baseline"),
        Gate("size_ratio", "baseline", 0.9,
             "the ratio is near-deterministic for the fixed synthetic "
             "workload"),
    )),
    Bench("checks", lambda args: bench_checks(jobs=args.workers), (
        Gate("findings_identical", "true",
             reason="warm incremental findings must equal the cold run "
                    "(sound SCC-region invalidation)"),
        Gate("warm_analyzed", "max", 0,
             "an unchanged tree must re-parse no file (stable digest "
             "keys)"),
        Gate("warm_speedup", "min", 3.0,
             "the incremental cache must keep paying"),
        Gate("warm_speedup", "baseline", 0.5,
             "conservative, because hosts vary"),
    )),
    Bench("shard", lambda args: bench.bench_shard(), (
        Gate("outcomes_identical", "true",
             reason="sharded disjoint cells must deliver what the "
                    "single-process oracle delivers"),
        Gate("telemetry_identical", "true",
             reason="merged per-room telemetry must equal the oracle "
                    "summary"),
        Gate("speedup", "min", 1.2, cpus=2, mode="processes",
             reason="independent rooms on two cores must keep beating "
                    "one simulator (1.28-2.25x over 22 runs on a 2-cpu "
                    "host)"),
        Gate("speedup", "min", 2.0, cpus=4, mode="processes",
             reason="on fewer cores than shards, or without forking, the "
                    "shards time-slice one core and the ratio is "
                    "scheduling noise"),
        Gate("oracle_deliveries_per_sec", "baseline", 0.8,
             "catches the workload itself slowing down"),
    )),
)


def _baseline_path(args: argparse.Namespace, name: str) -> pathlib.Path:
    """``--baseline`` is the kernel row's file; the others sit beside it."""
    kernel = pathlib.Path(args.baseline)
    return kernel if name == "kernel" else \
        kernel.with_name(f"baseline_{name}.json")


def _cmd_bench(args: argparse.Namespace) -> int:
    rows = [row for row in BENCHES
            if not args.kernel_only or row.name == "kernel"]
    # Read every input before the first (slow) bench runs.
    best = {}
    if args.raw is not None:
        if not pathlib.Path(args.raw).exists():
            print(f"error: --raw file not found: {args.raw}", file=sys.stderr)
            return 2
        best = bench.load_raw(pathlib.Path(args.raw))
    owners = bench.baseline_rows(rows)
    baselines = {} if args.update_baseline else {
        name: bench.load_json(_baseline_path(args, name)) for name in owners}

    payloads = {}
    failed = False
    for row in rows:
        payload = bench.ingest(row, row.run(args), best)
        payloads[row.name] = payload
        path = bench.write_bench_json(pathlib.Path(args.out_dir), payload)
        print(f"{row.name} -> {path}")
        if args.update_baseline:
            if row.name in owners:
                target = _baseline_path(args, row.name)
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(path.read_text())
                print(f"baseline updated -> {target}")
            continue
        for verdict in bench.evaluate(row, payload, baselines):
            failed = failed or verdict.status == "FAIL"
            print(f"  {verdict.line}", file=sys.stderr
                  if verdict.status == "FAIL" else sys.stdout)
    if failed:
        return 1
    if args.update_baseline:
        return 0
    label = ("regression gate (kernel only)" if args.kernel_only
             else "regression gate")
    skip = bench.baseline_skip(baselines["kernel"], payloads["kernel"])
    print(f"{label}: skipped ({skip})" if skip else f"{label}: ok")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # output piped into head etc.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
