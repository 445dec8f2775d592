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
* ``bench`` — run the E10 kernel/sweep microbenchmarks plus the
  population-scale culling, run-cache, telemetry-export and sharded
  multi-cell benchmarks, write ``BENCH_kernel.json`` /
  ``BENCH_sweeps.json`` / ``BENCH_trace.json`` / ``BENCH_scale.json`` /
  ``BENCH_cache.json`` / ``BENCH_telemetry.json`` /
  ``BENCH_shard.json``, and fail when event throughput regresses >20%
  against the committed baseline (or the culled/exhaustive outcomes
  diverge, or the warm-cache replay stops paying, or the columnar
  exporter loses its size/speed edge over JSONL, or a sharded run's
  outcomes diverge from the single-process oracle).
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
import sys
from typing import Iterator, List, Optional

from .core.analysis import compare_with_paper
from .core.figures import ALL_FIGURES, render_all
from .experiments import list_experiments, run_experiment
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
    import pathlib

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
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if getattr(args, "shards", None) is not None:
        kwargs["shards"] = args.shards
    with _trace_export(args), _cache_policy(args):
        try:
            result = run_experiment(args.experiment_id, **kwargs)
        except ExperimentError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        except TypeError:
            if kwargs.pop("shards", None) is not None:
                # Don't silently rerun single-process when sharding was
                # asked for explicitly.
                print(f"error: experiment {args.experiment_id!r} is not "
                      "shard-aware (no 'shards' parameter)",
                      file=sys.stderr)
                return 2
            # Experiment without a seed parameter: run with defaults.
            result = run_experiment(args.experiment_id)
    print(result.format_table())
    if result.meta.get("mode") in ("processes", "inline"):
        print(f"shards: {result.meta['shards']} ({result.meta['mode']}), "
              f"{result.meta['rounds']} sync rounds, "
              f"{result.meta['boundary_events']} boundary events",
              file=sys.stderr)
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
                     help="partition the experiment across N shard "
                          "processes (conservative parallel DES); only "
                          "shard-aware experiments such as E11 accept it")
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

    bench = sub.add_parser(
        "bench", help="run perf microbenchmarks and write BENCH_*.json")
    bench.add_argument("--out-dir", default="benchmarks",
                       help="directory for BENCH_<name>.json files")
    bench.add_argument("--baseline", default="benchmarks/baseline_kernel.json",
                       help="committed baseline to gate against")
    bench.add_argument("--raw", default=None,
                       help="pytest --benchmark-json output to ingest for "
                            "the kernel throughput figure")
    bench.add_argument("--workers", type=int, default=4,
                       help="worker count for the parallel sweep benchmark")
    bench.add_argument("--repeats", type=int, default=5,
                       help="repeats per kernel microbenchmark")
    bench.add_argument("--kernel-only", action="store_true",
                       help="run only the kernel microbenchmark and its "
                            "regression gate (the `make bench-kernel` leg)")
    bench.add_argument("--update-baseline", action="store_true",
                       help="rewrite the committed baseline instead of "
                            "gating against it")
    bench.set_defaults(func=_cmd_bench)

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
    import pathlib

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
    import pathlib

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


def _cmd_bench(args: argparse.Namespace) -> int:
    import pathlib

    from .experiments import bench

    out_dir = pathlib.Path(args.out_dir)
    baseline_path = pathlib.Path(args.baseline)

    kernel = bench.bench_kernel(repeats=args.repeats)
    if args.raw is not None:
        # Prefer the statistics-grade pytest-benchmark numbers when the
        # Makefile hands us its --benchmark-json dump.
        raw_path = pathlib.Path(args.raw)
        if not raw_path.exists():
            print(f"error: --raw file not found: {raw_path}", file=sys.stderr)
            return 2
        raw = bench.kernel_metrics_from_pytest_json(raw_path)
        if raw is not None:
            kernel.update(raw)
    kernel_path = bench.write_bench_json(out_dir, kernel)
    print(f"kernel: {kernel['events_per_sec']:,.0f} events/sec "
          f"(public schedule {kernel['events_per_sec_public_schedule']:,.0f})"
          f" -> {kernel_path}")

    if args.kernel_only:
        kernel_baseline = bench.load_baseline(baseline_path)
        failures = bench.check_regression(kernel, kernel_baseline)
        for failure in failures:
            print(f"regression: {failure}", file=sys.stderr)
        if not failures:
            if kernel_baseline is None:
                print("regression gate (kernel only): skipped (no baseline)")
            elif kernel_baseline.get("source") != kernel.get("source"):
                print(f"regression gate (kernel only): skipped (baseline "
                      f"source {kernel_baseline.get('source')!r} != current "
                      f"{kernel.get('source')!r})")
            else:
                print("regression gate (kernel only): ok")
        return 1 if failures else 0

    sweeps = bench.bench_sweeps(workers=args.workers)
    sweeps_path = bench.write_bench_json(out_dir, sweeps)
    print(f"sweeps: serial {sweeps['serial_wall_s']:.2f}s, "
          f"parallel({sweeps['workers']}) {sweeps['parallel_wall_s']:.2f}s "
          f"({sweeps['parallel_speedup']:.2f}x on {sweeps['cpus']} cpus), "
          f"cache hit rate {sweeps['link_cache']['hit_rate']:.1%}"
          f" -> {sweeps_path}")

    trace = bench.bench_trace(repeats=args.repeats)
    if args.raw is not None:
        raw_trace = bench.trace_metrics_from_pytest_json(pathlib.Path(args.raw))
        if raw_trace is not None:
            trace.update(raw_trace)
    trace_path = bench.write_bench_json(out_dir, trace)
    print(f"trace: disabled {trace['events_per_sec_disabled']:,.0f} "
          f"events/sec, records x{trace['records_overhead_ratio']:.2f}, "
          f"spans x{trace['spans_overhead_ratio']:.2f} -> {trace_path}")

    scale = bench.bench_scale()
    scale_path = bench.write_bench_json(out_dir, scale)
    top = scale["rows"][-1]
    print(f"scale: {top['stations']} stations culled {top['culled_wall_s']:.2f}s "
          f"vs exhaustive {top['exhaustive_wall_s']:.2f}s "
          f"({scale['speedup_at_max']:.1f}x, cull rate {top['cull_rate']:.1%}, "
          f"identical={scale['outcomes_identical']}) -> {scale_path}")

    cache = bench.bench_cache()
    cache_path = bench.write_bench_json(out_dir, cache)
    print(f"cache: uncached {cache['uncached_wall_s']:.2f}s, "
          f"cold {cache['cold_wall_s']:.2f}s "
          f"(+{cache['cold_overhead_ratio']:.1%}), "
          f"warm {cache['warm_wall_s'] * 1000:.0f}ms "
          f"({cache['warm_speedup']:.0f}x, "
          f"identical={cache['rows_identical']}) -> {cache_path}")

    telemetry = bench.bench_telemetry()
    telemetry_path = bench.write_bench_json(out_dir, telemetry)
    print(f"telemetry: columnar {telemetry['size_ratio']:.1f}x smaller / "
          f"{telemetry['write_speedup']:.1f}x faster than JSONL at "
          f"{telemetry['events']:,} events, streaming peak "
          f"{telemetry['stream_memory_ratio']:.1%} of replay, "
          f"summaries identical={telemetry['summary_identical']} "
          f"-> {telemetry_path}")

    # The checks benchmark lives in repro.checks.bench: experiments and
    # checks share layer rank 7, so only this rank-8 entry point may
    # orchestrate both.
    from .checks.bench import bench_checks, check_checks_regression

    checks = bench_checks(jobs=args.workers)
    checks_path = bench.write_bench_json(out_dir, checks)
    print(f"checks: cold {checks['cold_wall_s']:.2f}s, "
          f"warm {checks['warm_wall_s'] * 1000:.0f}ms "
          f"({checks['warm_speedup']:.0f}x, "
          f"identical={checks['findings_identical']}) -> {checks_path}")

    shard = bench.bench_shard()
    shard_path = bench.write_bench_json(out_dir, shard)
    print(f"shard: oracle {shard['oracle_wall_s']:.2f}s vs "
          f"{shard['shards']}-shard {shard['sharded_wall_s']:.2f}s "
          f"({shard['speedup']:.2f}x on {shard['cpus']} cpus, "
          f"mode={shard['mode']}, "
          f"identical={shard['outcomes_identical']}, "
          f"coupled identical={shard['coupled']['outcomes_identical']}) "
          f"-> {shard_path}")

    scale_baseline_path = baseline_path.parent / "baseline_scale.json"
    cache_baseline_path = baseline_path.parent / "baseline_cache.json"
    telemetry_baseline_path = baseline_path.parent / "baseline_telemetry.json"
    shard_baseline_path = baseline_path.parent / "baseline_shard.json"
    checks_baseline_path = baseline_path.parent / "baseline_checks.json"
    if args.update_baseline:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(kernel_path.read_text())
        scale_baseline_path.write_text(scale_path.read_text())
        cache_baseline_path.write_text(cache_path.read_text())
        telemetry_baseline_path.write_text(telemetry_path.read_text())
        shard_baseline_path.write_text(shard_path.read_text())
        checks_baseline_path.write_text(checks_path.read_text())
        print(f"baseline updated -> {baseline_path}")
        print(f"baseline updated -> {scale_baseline_path}")
        print(f"baseline updated -> {cache_baseline_path}")
        print(f"baseline updated -> {telemetry_baseline_path}")
        print(f"baseline updated -> {shard_baseline_path}")
        print(f"baseline updated -> {checks_baseline_path}")
        return 0

    baseline = bench.load_baseline(baseline_path)
    failures = bench.check_regression(kernel, baseline)
    # Sweep gate: serial/parallel row identity everywhere; the parallel
    # speedup floor only on hosts with enough usable cores for a pool.
    failures += bench.check_sweeps_regression(sweeps)
    # Trace gate: disabled-path floor vs the same kernel baseline, plus
    # machine-independent within-run overhead ratios.
    trace_baseline = baseline if (
        baseline is not None
        and baseline.get("source") == trace.get("source")) else None
    failures += bench.check_trace_regression(trace, trace_baseline)
    # Scale gate: outcome identity + speedup floor always; throughput vs
    # the committed scale baseline when one exists.
    failures += bench.check_scale_regression(
        scale, bench.load_baseline(scale_baseline_path))
    # Cache gate: row identity, all-hit warm replay, warm speedup floor
    # and cold-overhead ceiling always; warm speedup vs the committed
    # cache baseline when one exists.
    failures += bench.check_cache_regression(
        cache, bench.load_baseline(cache_baseline_path))
    # Telemetry gate: streaming/replay byte-identity, columnar size and
    # speed floors, bounded streaming memory, and the PR 2-style
    # disabled-path ceiling vs the committed kernel baseline.
    failures += bench.check_telemetry_regression(
        telemetry, bench.load_baseline(telemetry_baseline_path),
        kernel_baseline=baseline)
    # Shard gate: sharded-vs-oracle and coupled multiprocess-vs-inline
    # outcome identity always; the 4-shard speedup floor only on hosts
    # with enough usable cores; oracle throughput vs the committed shard
    # baseline when one exists.
    failures += bench.check_shard_regression(
        shard, bench.load_baseline(shard_baseline_path))
    # Checks gate: warm/cold finding byte-identity and zero warm
    # re-parses always; warm speedup floor within-run, plus a fraction
    # of the committed checks baseline when one exists.
    failures += check_checks_regression(
        checks, bench.load_baseline(checks_baseline_path))
    for failure in failures:
        print(f"regression: {failure}", file=sys.stderr)
    if not failures:
        if baseline is None:
            print("regression gate: skipped (no baseline; run "
                  "`make bench-baseline` to create one)")
        elif baseline.get("source") != kernel.get("source"):
            print(f"regression gate: skipped (baseline source "
                  f"{baseline.get('source')!r} != current "
                  f"{kernel.get('source')!r})")
        else:
            print("regression gate: ok")
    return 1 if failures else 0


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
