"""Telemetry: JSONL/columnar export, the run fold, and reports.

This package is the consumer side of the kernel's tracing and the metrics
registry: :mod:`repro.telemetry.jsonl` streams records/spans/metric
snapshots to disk in a stable line format,
:mod:`repro.telemetry.columnar` packs the same logical lines into a
dictionary-encoded struct-of-arrays ``.npz`` for million-event runs and
picks either format by file suffix (:func:`write_run`,
:func:`read_telemetry`), :mod:`repro.telemetry.streaming` folds a run's
trace — live or replayed from storage — into bounded-memory aggregates
and the small picklable summary parallel sweeps ship across the fork
boundary, :mod:`repro.telemetry.summary` combines such summaries, and
:mod:`repro.telemetry.report` renders the per-LPC-layer run report the
paper's classification story calls for.
"""

from .columnar import (
    ColumnarWriter,
    open_writer,
    read_columnar,
    read_telemetry,
    write_run,
)
from .jsonl import (
    JsonlWriter,
    read_jsonl,
    span_ancestry_categories,
    span_lines,
)
from .report import layer_report, layer_report_data
from .streaming import StreamingAggregator
from .summary import aggregate_telemetry

__all__ = [
    "ColumnarWriter",
    "JsonlWriter",
    "StreamingAggregator",
    "aggregate_telemetry",
    "layer_report",
    "layer_report_data",
    "open_writer",
    "read_columnar",
    "read_jsonl",
    "read_telemetry",
    "span_ancestry_categories",
    "span_lines",
    "write_run",
]
