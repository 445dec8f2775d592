"""Small, picklable per-run telemetry summaries.

A parallel sweep cannot ship raw traces across the fork boundary — a
dense-room run stores tens of thousands of records, and pickling them
would erase the speedup.  :func:`telemetry_summary` reduces a finished
simulation to a few hundred bytes of plain dict: event totals, trace
volume, issues bucketed by LPC layer, and the final metrics snapshot.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from ..core.concerns import ConcernClassifier
from ..core.layers import Column
from ..kernel.errors import ConfigurationError
from ..kernel.scheduler import Simulator

#: Counter prefixes excluded from merged-vs-oracle comparisons: they
#: describe the mechanics of the local engine, not simulation outcomes.
HOW_NOT_WHAT_COUNTERS: Tuple[str, ...] = ("medium.culling.",)


def telemetry_summary(sim: Simulator,
                      user_sources: Iterable[str] = (),
                      stream: Optional[Any] = None) -> Dict[str, Any]:
    """Summarise a finished run into a JSON/pickle-friendly dict.

    Closes the metrics registry (still-open latency measurements become
    ``abandoned``) — call this only when the run is over.  Issues that the
    classifier cannot place land under ``"unclassified"`` instead of
    raising: a summary must never kill the sweep that asked for it.

    With ``stream`` set to a
    :class:`~repro.telemetry.streaming.StreamingAggregator` that watched
    the run, the summary comes from the aggregator's incrementally-folded
    state instead of replaying ``tracer.records`` — byte-identical on
    unbounded traced runs, and the only source that works in the
    tracer's ``stream`` mode (``user_sources`` is then the aggregator's
    own, the argument here is ignored).
    """
    if stream is not None:
        return stream.summary(sim)
    tracer = sim.tracer
    classifier = ConcernClassifier()
    users = set(user_sources)
    issues_by_layer: Dict[str, int] = {}
    issues_by_column: Dict[str, int] = {}
    for record in tracer.issues():
        try:
            concern = classifier.from_trace(record, users)
        except Exception:
            issues_by_layer["unclassified"] = \
                issues_by_layer.get("unclassified", 0) + 1
            continue
        layer_name = concern.layer.name.lower()
        issues_by_layer[layer_name] = issues_by_layer.get(layer_name, 0) + 1
        column_name = ("user" if concern.column == Column.USER else "device")
        issues_by_column[column_name] = \
            issues_by_column.get(column_name, 0) + 1
    return {
        "sim_time": sim.now,
        "events_executed": sim.events_executed,
        "records": len(tracer),
        "records_dropped": tracer.dropped,
        "spans": tracer.span_count,
        "spans_open": tracer.open_span_count,
        "issues_by_layer": dict(sorted(issues_by_layer.items())),
        "issues_by_column": dict(sorted(issues_by_column.items())),
        "metrics": sim.metrics.close(),
    }


def _merge_counts(target: Dict[str, float],
                  source: Dict[str, float]) -> None:
    for name, value in source.items():
        target[name] = target.get(name, 0) + value


def aggregate_telemetry(summaries: Sequence[Dict[str, Any]],
                        ) -> Dict[str, Any]:
    """Collapse several :func:`telemetry_summary` dicts into one.

    Used by ``averaged_over_seeds`` so a seed-averaged result still
    carries layer/issue telemetry.  Aggregation is by *sum* — simulated
    time, event totals, trace volume, per-layer issue counts and metric
    counters all add across replicates — with ``replicates`` recording
    how many summaries were merged.  Gauges, latencies and probes are
    per-run shapes with no sound cross-seed sum, so the aggregate keeps
    only the counters section of ``metrics``.
    """
    totals = {"sim_time": 0.0, "events_executed": 0, "records": 0,
              "records_dropped": 0, "spans": 0, "spans_open": 0}
    issues_by_layer: Dict[str, float] = {}
    issues_by_column: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    for summary in summaries:
        for name in totals:
            totals[name] += summary.get(name, 0)
        _merge_counts(issues_by_layer, summary.get("issues_by_layer", {}))
        _merge_counts(issues_by_column, summary.get("issues_by_column", {}))
        metrics = summary.get("metrics") or {}
        _merge_counts(counters, metrics.get("counters", {}))
    out: Dict[str, Any] = {"replicates": len(summaries)}
    out.update(totals)
    out["issues_by_layer"] = dict(sorted(issues_by_layer.items()))
    out["issues_by_column"] = dict(sorted(issues_by_column.items()))
    out["metrics"] = {"counters": dict(sorted(counters.items()))}
    return out


def merge_summaries(summaries: Sequence[Dict[str, Any]],
                    drop_counters: Tuple[str, ...] = HOW_NOT_WHAT_COUNTERS,
                    ) -> Dict[str, Any]:
    """Collapse the summaries of one run split into parts into one dict.

    Unlike :func:`aggregate_telemetry`, which sums replicates, the parts
    here ran side by side over the same horizon (E11's rooms, each on its
    own simulator): totals, issue maps and metric counters sum as there,
    but ``sim_time`` is the common horizon (max), there is no
    ``replicates`` count, and counters with a prefix in ``drop_counters``
    are excluded — they describe engine mechanics, such as audible sets
    culled against the locally attached population, not what the
    simulation did.  Equivalence tests compare
    ``merge_summaries(parts)`` against ``merge_summaries([oracle])`` so
    both sides pass through the same reduction.
    """
    if not summaries:
        raise ConfigurationError("nothing to merge")
    out = aggregate_telemetry(summaries)
    del out["replicates"]
    out["sim_time"] = max(summary.get("sim_time", 0.0)
                          for summary in summaries)
    out["metrics"]["counters"] = {
        name: value for name, value in out["metrics"]["counters"].items()
        if not name.startswith(drop_counters)}
    return out
