"""Per-LPC-layer run reports.

The paper positions the LPC model as a tool for "properly classifying
issues raised during discussion"; :func:`layer_report` does exactly that
for a run: every ``issue.*`` record, classified by the
:class:`~repro.telemetry.streaming.StreamingAggregator` attached to the
run, is tallied into the five-layer, two-column grid of Figure 1,
followed by the health signals the metrics registry collected.  The
aggregator folds as the run goes, so the report is the same whether the
tracer stored the run or, in ``stream`` mode, stored nothing.

Output is deterministic: same seed, same report, byte for byte — counts
come from the trace, ordering from the model's own layer enumeration and
sorted metric names.  :func:`layer_report_data` is the grid as a
machine-readable dict (``repro.cli report --format json``), and
:func:`layer_report` renders that dict as text.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.layers import DEVICE_SIDE, USER_SIDE, Column, layers_top_down
from .streaming import StreamingAggregator


def layer_report_data(aggregator: StreamingAggregator,
                      title: str = "LPC run report") -> Dict[str, Any]:
    """The layer grid as a machine-readable dict (for ``--format json``).

    Layers keep the model's top-down order; every leaf is a JSON type,
    so ``json.dumps(..., sort_keys=True)`` is byte-stable across runs of
    the same seed.  ``records_dropped`` is always 0, kept so pinned
    reports keep their bytes.
    """
    sim = aggregator.sim
    counts, unclassified = aggregator.layer_counts()
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
        "records": aggregator.records_seen,
        "records_dropped": 0,
        "spans": aggregator.spans_begun,
        "spans_open": aggregator.spans_open,
        "layers": layers,
        "totals": {"device": device_total, "user": user_total},
        "unclassified_issues": unclassified,
        "metrics": sim.metrics.snapshot(),
    }


def layer_report(aggregator: StreamingAggregator,
                 title: str = "LPC run report") -> str:
    """Render the per-layer issue grid plus metrics for a finished run."""
    data = layer_report_data(aggregator, title)
    lines = [title, "=" * len(title), ""]
    lines.append(f"simulated time  : {data['sim_time']:.2f} s")
    lines.append(f"events executed : {data['events_executed']}")
    lines.append(f"trace records   : {data['records']} "
                 f"({data['records_dropped']} dropped)")
    lines.append(f"spans           : {data['spans']} "
                 f"({data['spans_open']} open)")
    lines.append("")

    header = (f"{'layer':<12} {'device artifact':<28} {'issues':>6}   "
              f"{'user artifact':<20} {'issues':>6}")
    lines.append(header)
    lines.append("-" * len(header))
    for layer, row in zip(layers_top_down(), data["layers"]):
        lines.append(
            f"{layer.title:<12} {row['device_artifact']:<28} "
            f"{row['device_issues']:>6}   "
            f"{row['user_artifact']:<20} {row['user_issues']:>6}")
    lines.append("-" * len(header))
    totals = data["totals"]
    lines.append(f"{'total':<12} {'':<28} {totals['device']:>6}   "
                 f"{'':<20} {totals['user']:>6}")
    if data["unclassified_issues"]:
        lines.append(f"unclassified issues: {data['unclassified_issues']}")
    lines.append("")

    snapshot = data["metrics"]
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
