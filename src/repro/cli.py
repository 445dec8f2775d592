"""Command-line interface: ``python -m repro``.

Subcommands:

* ``figures [N]`` — render the paper's figures (all, or one of 1-5).
* ``experiments`` — list every registered experiment id.
* ``run <id> [--seed S]`` — run one experiment and print its table.
* ``demo [--seed S] [--horizon T]`` — run the instrumented Smart Projector
  scenario and print the layered LPC report plus paper coverage.
* ``report --lpc`` — run the scripted-week scenario and print the
  per-LPC-layer telemetry report (issue grid plus metrics), folded live
  while the scenario runs.  ``--format json`` emits the same grid
  machine-readably.
* ``cache`` — inspect (``stats``) or empty (``clear``) the
  content-addressed run cache behind incremental sweeps; honours
  ``REPRO_CACHE_DIR``.
* ``check`` — the determinism + layer-boundary static pass
  (``repro.checks``); exits 1 on unsuppressed findings.  ``--format
  json`` emits machine-readable findings, ``--list-rules`` prints the
  rule catalogue, ``--write-baseline`` drafts a suppression template.

``run`` and ``demo`` accept ``--trace CATEGORY_PREFIX`` and
``--trace-out FILE``: trace records (and completed spans) stream to the
file while the command runs — a packed struct-of-arrays when ``FILE``
ends in ``.npz``, one JSON object per line otherwise.  ``demo`` and
``report --lpc`` reject a ``--horizon`` that is not a finite number
above 0 before they build anything.

Each handler imports the modules its subcommand runs, so ``check``
loads no simulator and ``run`` no static pass.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import math
import pathlib
import sys
from typing import Iterator, List, Optional

from .kernel.errors import ExperimentError, ReproError


def _cmd_figures(args: argparse.Namespace) -> int:
    from .core.figures import ALL_FIGURES, render_all

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
    from .experiments.harness import list_experiments

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
    from .telemetry.columnar import open_writer

    if prefix is None:
        prefix = ""  # empty prefix = everything
    writer = open_writer(pathlib.Path(out or "trace.jsonl"))
    label = "JSONL" if writer.format == "jsonl" else "columnar"
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
                        help="trace destination (default: trace.jsonl); "
                             "a .npz name writes packed columnar arrays, "
                             "any other line-per-object JSONL")


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
    from .experiments.harness import get_experiment, run_experiment

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


def _bad_horizon(horizon: float) -> bool:
    """Print a one-line error and return True unless ``horizon`` is a
    finite number above 0."""
    if math.isfinite(horizon) and horizon > 0:
        return False
    print(f"error: --horizon must be a finite number > 0, got {horizon:g}",
          file=sys.stderr)
    return True


def _cmd_demo(args: argparse.Namespace) -> int:
    if _bad_horizon(args.horizon):
        return 2
    from .core.analysis import compare_with_paper
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
    report.set_defaults(func=_cmd_report)

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
    check.add_argument("--list-rules", action="store_true",
                       help="print the rule catalogue and exit")
    check.add_argument("--write-baseline", metavar="FILE", default=None,
                       help="write a suppression template covering the "
                            "current findings (justifications left empty "
                            "for the operator to fill in)")
    check.set_defaults(func=_cmd_check)

    return parser


def _cmd_report(args: argparse.Namespace) -> int:
    if args.lpc:
        if _bad_horizon(args.horizon):
            return 2
        import json

        from .experiments.e9_analysis import _scripted_week
        from .telemetry.report import layer_report, layer_report_data
        from .telemetry.streaming import StreamingAggregator

        title = (f"LPC run report — scripted week (seed={args.seed}, "
                 f"horizon={args.horizon:g}s)")
        aggregator = StreamingAggregator(
            user_sources={"presenter", "casual-1", "visitor-1"})
        _scripted_week(seed=args.seed, horizon=args.horizon,
                       aggregator=aggregator)
        if args.fmt == "json":
            data = layer_report_data(aggregator, title=title)
            print(json.dumps(data, sort_keys=True, indent=2))
        else:
            print(layer_report(aggregator, title=title), end="")
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
    from .checks.baseline import write_baseline
    from .checks.findings import RULES
    from .checks.runner import run_checks

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
    report = run_checks(paths, baseline=pathlib.Path(args.baseline))

    if args.write_baseline is not None:
        out = pathlib.Path(args.write_baseline)
        count = write_baseline(report.findings, out)
        print(f"baseline template: {count} entries -> {out} "
              "(fill in justifications before use)")
        return 0

    print(report.to_json() if args.fmt == "json"
          else report.format_text())
    return 0 if report.clean else 1


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
