"""JSONL export of trace records, causal spans, and metric snapshots.

One JSON object per line, every object carrying a ``type`` discriminator:

* ``{"type": "record", "time": ..., "category": ..., "source": ...,
  "message": ..., "data": {...}}``
* ``{"type": "span", "span_id": ..., "parent_id": ..., "category": ...,
  "source": ..., "start": ..., "end": ..., "status": ..., "data": {...}}``
* ``{"type": "metrics", "time": ..., "counters": {...}, "gauges": {...},
  "latencies": {...}, "probes": {...}}``

Keys are sorted and floats are emitted verbatim, so the same seeded run
produces a byte-identical file.  Payload values that are not JSON types
(live objects riding in trace ``data``) degrade to ``repr`` instead of
failing the whole export.

When the writer is handed a metrics registry it records
``telemetry.export.jsonl.{records,spans,bytes}`` counters at close, so
export cost is itself observable in the next snapshot (the exported file
is unaffected — accounting happens after the last line is written).
"""

from __future__ import annotations

import json
import pathlib
import warnings
from typing import Any, Dict, Iterable, List, Optional

from ..kernel.trace import Span, TraceRecord


def _default(obj: Any) -> str:
    return repr(obj)


def _dumps(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, default=_default)


def record_line(record: TraceRecord) -> Dict[str, Any]:
    return {
        "type": "record",
        "time": record.time,
        "category": record.category,
        "source": record.source,
        "message": record.message,
        "data": record.data,
    }


def span_line(span: Span) -> Dict[str, Any]:
    return {
        "type": "span",
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "category": span.category,
        "source": span.source,
        "start": span.start,
        "end": span.end,
        "status": span.status,
        "data": span.data,
    }


def metrics_line(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    return {"type": "metrics", **snapshot}


class JsonlWriter:
    """Streams telemetry lines to a file; usable as a context manager.

    The writer is what the CLI's ``--trace-out`` plugs into the kernel's
    default-subscriber hooks: records and spans stream out as they happen,
    so even a crashed run leaves a readable file.

    Args:
        path: output file (parent directories are created).
        metrics: optional metrics registry (anything with a
            ``counter(name)`` method); when given, the writer records
            ``telemetry.export.jsonl.*`` counters once at :meth:`close`.
    """

    #: format tag used in the ``telemetry.export.<format>.*`` counters.
    format = "jsonl"

    def __init__(self, path: pathlib.Path, metrics: Any = None) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w")
        self.lines = 0
        self.bytes = 0
        self.records_written = 0
        self.spans_written = 0
        self._metrics = metrics
        self._accounted = False

    def _write(self, payload: Dict[str, Any]) -> None:
        line = _dumps(payload) + "\n"
        self._fh.write(line)
        self.lines += 1
        # json.dumps defaults to ensure_ascii, so len(str) == encoded bytes.
        self.bytes += len(line)

    def write_record(self, record: TraceRecord) -> None:
        self._write(record_line(record))
        self.records_written += 1

    def write_span(self, span: Span) -> None:
        self._write(span_line(span))
        self.spans_written += 1

    def write_metrics(self, snapshot: Dict[str, Any]) -> None:
        self._write(metrics_line(snapshot))

    def flush(self) -> None:
        """Push buffered lines to disk without closing the file."""
        if not self._fh.closed:
            self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()
        self._account()

    def _account(self) -> None:
        if self._metrics is None or self._accounted:
            return
        self._accounted = True
        prefix = f"telemetry.export.{self.format}"
        self._metrics.counter(f"{prefix}.records").add(self.records_written)
        self._metrics.counter(f"{prefix}.spans").add(self.spans_written)
        self._metrics.counter(f"{prefix}.bytes").add(self.bytes)

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def read_jsonl(path: pathlib.Path) -> List[Dict[str, Any]]:
    """Parse a telemetry JSONL file back into a list of dicts.

    A malformed *final* line is tolerated with a :class:`RuntimeWarning`
    — the classic artifact of a run that crashed mid-write — while a
    malformed line anywhere else still raises, because that means real
    corruption rather than truncation.
    """
    path = pathlib.Path(path)
    with path.open() as fh:
        entries = [raw.strip() for raw in fh]
    entries = [raw for raw in entries if raw]
    lines: List[Dict[str, Any]] = []
    for index, raw in enumerate(entries):
        try:
            lines.append(json.loads(raw))
        except ValueError:
            if index == len(entries) - 1:
                warnings.warn(
                    f"{path}: discarding truncated final line "
                    f"({len(raw)} bytes) — partial write from an "
                    "interrupted run", RuntimeWarning, stacklevel=2)
                break
            raise
    return lines


def span_lines(lines: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Just the span objects from parsed JSONL lines."""
    return [line for line in lines if line.get("type") == "span"]


def span_ancestry_categories(lines: Iterable[Dict[str, Any]],
                             span_id: int) -> List[str]:
    """Category chain from span ``span_id`` up to its root, leaf first.

    Works on parsed JSONL (dicts), so a test or a post-hoc analysis can
    reconstruct causality from the export alone — no live simulator
    needed.
    """
    by_id: Dict[Optional[int], Dict[str, Any]] = {
        line["span_id"]: line for line in span_lines(lines)}
    chain: List[str] = []
    seen = set()
    current = by_id.get(span_id)
    while current is not None and current["span_id"] not in seen:
        seen.add(current["span_id"])
        chain.append(current["category"])
        current = by_id.get(current.get("parent_id"))
    return chain
