"""Per-LPC-layer run reports.

The paper positions the LPC model as a tool for "properly classifying
issues raised during discussion"; :func:`layer_report` does exactly that
for a *live* run: every ``issue.*`` record is routed through the existing
:class:`~repro.core.concerns.ConcernClassifier` and tallied into the
five-layer, two-column grid of Figure 1, followed by the health signals
the metrics registry collected.

The report accepts two sources and renders byte-identically from either:
a finished :class:`~repro.kernel.scheduler.Simulator` (the classic
record-replay path) or a
:class:`~repro.telemetry.streaming.StreamingAggregator` that folded the
run incrementally — which is the only option when the tracer ran in
``stream`` mode and stored nothing.

Output is deterministic: same seed, same report, byte for byte — counts
come from the trace, ordering from the model's own layer enumeration and
sorted metric names.  :func:`layer_report_data` exposes the same grid as
a machine-readable dict for ``repro.cli report --format json``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Tuple, Union

from ..core.concerns import ConcernClassifier
from ..core.layers import DEVICE_SIDE, USER_SIDE, Column, Layer, layers_top_down
from ..kernel.scheduler import Simulator

#: Anything layer_report can render: a finished simulator (replay) or a
#: StreamingAggregator (duck-typed on ``layer_counts`` to keep this
#: module import-light).
ReportSource = Union[Simulator, Any]


def _classify_issues(sim: Simulator, user_sources: Iterable[str],
                     ) -> Tuple[Dict[Tuple[Layer, Column], int], int]:
    classifier = ConcernClassifier()
    users = set(user_sources)
    counts: Dict[Tuple[Layer, Column], int] = {}
    unclassified = 0
    for record in sim.tracer.issues():
        try:
            concern = classifier.from_trace(record, users)
        except Exception:
            unclassified += 1
            continue
        column = (Column.USER if concern.column == Column.USER
                  else Column.DEVICE)
        key = (concern.layer, column)
        counts[key] = counts.get(key, 0) + 1
    return counts, unclassified


def _source_stats(source: ReportSource, user_sources: Iterable[str],
                  ) -> Dict[str, Any]:
    """Normalise either source into the numbers the report renders.

    A StreamingAggregator is recognised by its ``layer_counts`` method;
    everything else is treated as a simulator and replayed.
    """
    if hasattr(source, "layer_counts"):
        sim = source.sim
        counts, unclassified = source.layer_counts()
        return {
            "sim": sim,
            "counts": counts,
            "unclassified": unclassified,
            "records": source.records_seen,
            "dropped": sim.tracer.dropped,
            "spans": source.spans_begun,
            "spans_open": source.spans_open,
        }
    counts, unclassified = _classify_issues(source, user_sources)
    tracer = source.tracer
    return {
        "sim": source,
        "counts": counts,
        "unclassified": unclassified,
        "records": len(tracer),
        "dropped": tracer.dropped,
        "spans": tracer.span_count,
        "spans_open": tracer.open_span_count,
    }


def layer_report(source: ReportSource, user_sources: Iterable[str] = (),
                 title: str = "LPC run report") -> str:
    """Render the per-layer issue grid plus metrics for a finished run."""
    stats = _source_stats(source, user_sources)
    sim = stats["sim"]
    counts = stats["counts"]

    lines = [title, "=" * len(title), ""]
    lines.append(f"simulated time  : {sim.now:.2f} s")
    lines.append(f"events executed : {sim.events_executed}")
    lines.append(f"trace records   : {stats['records']} "
                 f"({stats['dropped']} dropped)")
    lines.append(f"spans           : {stats['spans']} "
                 f"({stats['spans_open']} open)")
    lines.append("")

    header = (f"{'layer':<12} {'device artifact':<28} {'issues':>6}   "
              f"{'user artifact':<20} {'issues':>6}")
    lines.append(header)
    lines.append("-" * len(header))
    device_total = 0
    user_total = 0
    for layer in layers_top_down():
        device_count = counts.get((layer, Column.DEVICE), 0)
        user_count = counts.get((layer, Column.USER), 0)
        device_total += device_count
        user_total += user_count
        lines.append(
            f"{layer.title:<12} {DEVICE_SIDE[layer]:<28} {device_count:>6}   "
            f"{USER_SIDE[layer]:<20} {user_count:>6}")
    lines.append("-" * len(header))
    lines.append(
        f"{'total':<12} {'':<28} {device_total:>6}   {'':<20} {user_total:>6}")
    if stats["unclassified"]:
        lines.append(f"unclassified issues: {stats['unclassified']}")
    lines.append("")

    snapshot = sim.metrics.snapshot()
    if snapshot["counters"]:
        lines.append("counters")
        lines.append("--------")
        for name, value in snapshot["counters"].items():
            lines.append(f"  {name:<32} {value:g}")
        lines.append("")
    if snapshot["gauges"]:
        lines.append("gauges")
        lines.append("------")
        for name, gauge in snapshot["gauges"].items():
            lines.append(f"  {name:<32} now={gauge['value']:g} "
                         f"avg={gauge['time_average']:.3f} "
                         f"peak={gauge['peak']:g}")
        lines.append("")
    if snapshot["latencies"]:
        lines.append("latencies")
        lines.append("---------")
        for name, latency in snapshot["latencies"].items():
            lines.append(
                f"  {name:<32} n={latency['n']} "
                f"mean={latency['mean']:.4f}s p95={latency['p95']:.4f}s "
                f"abandoned={latency['abandoned']}")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def layer_report_data(source: ReportSource,
                      user_sources: Iterable[str] = (),
                      title: str = "LPC run report") -> Dict[str, Any]:
    """The layer grid as a machine-readable dict (for ``--format json``).

    Layers keep the model's top-down order; every leaf is a JSON type,
    so ``json.dumps(..., sort_keys=True)`` is byte-stable across runs of
    the same seed.
    """
    stats = _source_stats(source, user_sources)
    sim = stats["sim"]
    counts = stats["counts"]
    layers = []
    device_total = 0
    user_total = 0
    for layer in layers_top_down():
        device_count = counts.get((layer, Column.DEVICE), 0)
        user_count = counts.get((layer, Column.USER), 0)
        device_total += device_count
        user_total += user_count
        layers.append({
            "layer": layer.name.lower(),
            "device_artifact": DEVICE_SIDE[layer],
            "device_issues": device_count,
            "user_artifact": USER_SIDE[layer],
            "user_issues": user_count,
        })
    return {
        "title": title,
        "sim_time": sim.now,
        "events_executed": sim.events_executed,
        "records": stats["records"],
        "records_dropped": stats["dropped"],
        "spans": stats["spans"],
        "spans_open": stats["spans_open"],
        "layers": layers,
        "totals": {"device": device_total, "user": user_total},
        "unclassified_issues": stats["unclassified"],
        "metrics": sim.metrics.snapshot(),
    }
