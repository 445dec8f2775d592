"""Telemetry: JSONL/columnar export, the run fold, and reports.

This package is the consumer side of the kernel's tracing and the metrics
registry: :mod:`repro.telemetry.jsonl` streams records/spans/metric
snapshots to disk in a stable line format,
:mod:`repro.telemetry.columnar` packs the same logical lines into a
dictionary-encoded struct-of-arrays ``.npz`` for million-event runs and
picks either format by file suffix (:func:`write_run`,
:func:`read_telemetry`), :mod:`repro.telemetry.streaming` folds a run's
trace as it happens into bounded-memory aggregates and the small
picklable summary parallel sweeps ship across the fork boundary, :mod:`repro.telemetry.summary` combines such summaries, and
:mod:`repro.telemetry.report` renders the per-LPC-layer run report the
paper's classification story calls for.
"""

from ..kernel.lazy import lazy_exports

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "ColumnarWriter": "columnar",
    "open_writer": "columnar",
    "read_columnar": "columnar",
    "read_telemetry": "columnar",
    "write_run": "columnar",
    "JsonlWriter": "jsonl",
    "read_jsonl": "jsonl",
    "span_ancestry_categories": "jsonl",
    "span_lines": "jsonl",
    "layer_report": "report",
    "layer_report_data": "report",
    "StreamingAggregator": "streaming",
    "aggregate_telemetry": "summary",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
