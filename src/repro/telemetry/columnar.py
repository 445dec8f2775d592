"""Columnar telemetry export: packed struct-of-arrays for million-event runs.

The JSONL exporter (:mod:`repro.telemetry.jsonl`) writes one object per
line — friendly to `jq` and streaming tails, but at 10^6 records the
category/source/message strings are repeated verbatim on every line and
the file balloons.  This module packs the same *logical* lines into a
struct-of-arrays NumPy ``.npz``:

* every string column is **dictionary-encoded** — unique strings live
  once in a shared pool (concatenated UTF-8 bytes + a length array) and
  the column stores integer codes;
* code/id arrays use the **smallest unsigned dtype** that fits (uint8
  when the pool has < 256 entries), times are float64;
* structured ``data`` payloads are serialised to canonical JSON strings
  (sorted keys, ``repr`` fallback — exactly the JSONL rules) and
  dictionary-encoded like any other string, so repetitive payloads cost
  one pool entry.

``read_columnar`` reconstructs the identical logical dicts that
``read_jsonl`` returns (records in emit order, then spans, then metrics
snapshots), so every downstream consumer can take either file.  The file
suffix picks the format both ways: :func:`open_writer` and
:func:`write_run` write columnar for ``.npz`` and JSONL otherwise, and
:func:`read_telemetry` reads by the same rule.

The ``.npz`` container is byte-deterministic: NumPy stamps zip entries
with the fixed DOS epoch, so the same seeded run produces a
byte-identical file — the property the figures pipeline and the cache
rely on for JSONL, preserved here.
"""

from __future__ import annotations

import io
import json
import pathlib
from math import copysign
from typing import Any, Dict, List, Tuple, Union

import numpy as np

from ..kernel.errors import ConfigurationError
from ..kernel.scheduler import Simulator
from ..kernel.trace import Span, TraceRecord
from .jsonl import JsonlWriter, _dumps, read_jsonl

#: Schema version embedded in every file's ``meta`` block.
SCHEMA_VERSION = 1

#: Sentinel stored in the ``span_parent`` column for root spans.
NO_PARENT = -1


def _smallest_uint(max_value: int) -> Any:
    """The narrowest unsigned dtype that can hold ``max_value``."""
    if max_value < 2 ** 8:
        return np.uint8
    if max_value < 2 ** 16:
        return np.uint16
    if max_value < 2 ** 32:
        return np.uint32
    return np.uint64


def _smallest_int(min_value: int, max_value: int) -> Any:
    """The narrowest signed dtype covering ``[min_value, max_value]``."""
    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= min_value and max_value <= info.max:
            return dtype
    return np.int64


class _StringPool:
    """Interns strings; serialises to concatenated UTF-8 + lengths."""

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self._strings: List[str] = []

    def intern(self, value: str) -> int:
        code = self._index.get(value)
        if code is None:
            code = len(self._strings)
            self._index[value] = code
            self._strings.append(value)
        return code

    def __len__(self) -> int:
        return len(self._strings)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        encoded = [s.encode("utf-8") for s in self._strings]
        blob = b"".join(encoded)
        pool_bytes = np.frombuffer(blob, dtype=np.uint8).copy()
        max_len = max((len(b) for b in encoded), default=0)
        lengths = np.array([len(b) for b in encoded],
                           dtype=_smallest_uint(max_len))
        return pool_bytes, lengths


def _pool_strings(pool_bytes: np.ndarray, pool_len: np.ndarray) -> List[str]:
    blob = pool_bytes.tobytes()
    strings: List[str] = []
    offset = 0
    for length in pool_len.tolist():
        strings.append(blob[offset:offset + length].decode("utf-8"))
        offset += length
    return strings


#: Classes whose equal values always encode alike once the class is
#: part of the memo key.
_MEMO_SCALARS = frozenset((str, int, bool, type(None)))


def _memo_key(value: Any) -> Any:
    """``value`` as a payload-memo key that equals another only where
    both encode alike.

    Python equates 1, 1.0 and True, and 0.0 and -0.0, which JSON writes
    differently, so the key carries each value's class and each float's
    sign, inside tuples too.  Raises :class:`TypeError` for a value of
    any other class, subclasses included (a frozenset or a Decimal can
    equal another that encodes differently), so its payload is encoded
    without the memo.
    """
    cls = value.__class__
    if cls in _MEMO_SCALARS:
        return cls, value
    if cls is float:
        return cls, value, copysign(1.0, value)
    if cls is tuple:
        return cls, tuple(map(_memo_key, value))
    raise TypeError(f"no payload memo for {cls.__name__}")


class ColumnarWriter:
    """Buffers telemetry lines and packs them into a columnar file.

    Drop-in for :class:`~repro.telemetry.jsonl.JsonlWriter` — same
    ``write_record`` / ``write_span`` / ``write_metrics`` / ``flush`` /
    ``close`` surface and context-manager protocol — but the write is a
    *repack*: rows accumulate in compact column builders (integer codes
    and float arrays, never the record objects) and :meth:`flush`
    rewrites the whole container.  Crash-resilience therefore comes from
    explicit flushes, not per-line appends; the CLI flushes on close.

    Args:
        path: output file (parents created).
        metrics: optional metrics registry (anything with ``counter``);
            records ``telemetry.export.npz.*`` counters at close.
    """

    #: format tag used in the ``telemetry.export.<format>.*`` counters.
    format = "npz"

    def __init__(self, path: pathlib.Path, metrics: Any = None) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.lines = 0
        self.bytes = 0
        self.records_written = 0
        self.spans_written = 0
        self._metrics = metrics
        self._accounted = False
        self._closed = False
        self._pool = _StringPool()
        # Payload-dict -> pool-code memo: repetitive trace payloads skip
        # the (dominant) canonical-JSON serialisation entirely.  Bounded
        # so hostile all-unique payloads cannot grow it past the pool.
        self._payload_memo: Dict[Any, int] = {}
        # Records: struct-of-arrays builders (plain floats/ints only).
        self._rec_time: List[float] = []
        self._rec_category: List[int] = []
        self._rec_source: List[int] = []
        self._rec_message: List[int] = []
        self._rec_data: List[int] = []
        # Spans.
        self._span_id: List[int] = []
        self._span_parent: List[int] = []
        self._span_category: List[int] = []
        self._span_source: List[int] = []
        self._span_status: List[int] = []
        self._span_start: List[float] = []
        self._span_end: List[float] = []
        self._span_data: List[int] = []
        # Metrics snapshots (whole snapshot as one canonical JSON string).
        self._met_data: List[int] = []

    #: Cap on distinct payload shapes memoized before falling back to
    #: serialise-every-time (correctness is unaffected either way).
    _PAYLOAD_MEMO_MAX = 1 << 16

    def _intern_payload(self, data: Dict[str, Any]) -> int:
        try:
            key = tuple((k, _memo_key(v)) for k, v in sorted(data.items()))
            code = self._payload_memo.get(key)
        except TypeError:
            # Unsortable keys, unhashable values or values of other
            # classes: no memo, just encode.
            return self._pool.intern(_dumps(data))
        if code is None:
            code = self._pool.intern(_dumps(data))
            if len(self._payload_memo) < self._PAYLOAD_MEMO_MAX:
                self._payload_memo[key] = code
        return code

    # ------------------------------------------------------------------
    # Line intake — mirrors JsonlWriter
    # ------------------------------------------------------------------
    def write_record(self, record: TraceRecord) -> None:
        self._rec_time.append(record.time)
        self._rec_category.append(self._pool.intern(record.category))
        self._rec_source.append(self._pool.intern(record.source))
        self._rec_message.append(self._pool.intern(record.message))
        self._rec_data.append(self._intern_payload(record.data))
        self.lines += 1
        self.records_written += 1

    def write_span(self, span: Span) -> None:
        self._span_id.append(span.span_id)
        self._span_parent.append(
            NO_PARENT if span.parent_id is None else span.parent_id)
        self._span_category.append(self._pool.intern(span.category))
        self._span_source.append(self._pool.intern(span.source))
        self._span_status.append(self._pool.intern(span.status))
        self._span_start.append(span.start)
        self._span_end.append(
            float("nan") if span.end is None else span.end)
        self._span_data.append(self._intern_payload(span.data))
        self.lines += 1
        self.spans_written += 1

    def write_metrics(self, snapshot: Dict[str, Any]) -> None:
        self._met_data.append(self._pool.intern(_dumps(snapshot)))
        self.lines += 1

    # ------------------------------------------------------------------
    # Packing
    # ------------------------------------------------------------------
    def _columns(self) -> Dict[str, np.ndarray]:
        pool_bytes, pool_len = self._pool.arrays()
        code_dtype = _smallest_uint(max(len(self._pool) - 1, 0))
        max_span_id = max(self._span_id, default=0)
        parent_min = min(self._span_parent, default=NO_PARENT)
        parent_max = max(self._span_parent, default=0)
        meta = {
            "format": "repro-telemetry-columnar",
            "version": SCHEMA_VERSION,
            "counts": {
                "records": self.records_written,
                "spans": self.spans_written,
                "metrics": len(self._met_data),
            },
        }
        meta_bytes = np.frombuffer(
            _dumps(meta).encode("utf-8"), dtype=np.uint8).copy()
        return {
            "meta": meta_bytes,
            "pool_bytes": pool_bytes,
            "pool_len": pool_len,
            "rec_time": np.array(self._rec_time, dtype=np.float64),
            "rec_category": np.array(self._rec_category, dtype=code_dtype),
            "rec_source": np.array(self._rec_source, dtype=code_dtype),
            "rec_message": np.array(self._rec_message, dtype=code_dtype),
            "rec_data": np.array(self._rec_data, dtype=code_dtype),
            "span_id": np.array(self._span_id,
                                dtype=_smallest_uint(max_span_id)),
            "span_parent": np.array(
                self._span_parent,
                dtype=_smallest_int(parent_min, parent_max)),
            "span_category": np.array(self._span_category, dtype=code_dtype),
            "span_source": np.array(self._span_source, dtype=code_dtype),
            "span_status": np.array(self._span_status, dtype=code_dtype),
            "span_start": np.array(self._span_start, dtype=np.float64),
            "span_end": np.array(self._span_end, dtype=np.float64),
            "span_data": np.array(self._span_data, dtype=code_dtype),
            "met_data": np.array(self._met_data, dtype=code_dtype),
        }

    def flush(self) -> None:
        """Repack every buffered line and rewrite the container."""
        if self._closed:
            return
        buffer = io.BytesIO()
        np.savez(buffer, **self._columns())
        self.path.write_bytes(buffer.getvalue())
        self.bytes = self.path.stat().st_size

    def close(self) -> None:
        if not self._closed:
            self.flush()
            self._closed = True
        self._account()

    def _account(self) -> None:
        if self._metrics is None or self._accounted:
            return
        self._accounted = True
        prefix = f"telemetry.export.{self.format}"
        self._metrics.counter(f"{prefix}.records").add(self.records_written)
        self._metrics.counter(f"{prefix}.spans").add(self.spans_written)
        self._metrics.counter(f"{prefix}.bytes").add(self.bytes)

    def __enter__(self) -> "ColumnarWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def open_writer(path: pathlib.Path, metrics: Any = None,
                ) -> Union[ColumnarWriter, JsonlWriter]:
    """The telemetry writer for ``path``'s suffix: columnar for ``.npz``,
    JSONL for anything else."""
    if str(path).endswith(".npz"):
        return ColumnarWriter(path, metrics=metrics)
    return JsonlWriter(path, metrics=metrics)


def write_run(path: pathlib.Path, sim: Simulator, prefix: str = "",
              include_metrics: bool = True,
              account: bool = False) -> Dict[str, int]:
    """Export a finished run's stored telemetry to ``path``.

    The format follows the suffix (see :func:`open_writer`).  Records
    and spans are filtered by category ``prefix`` (empty = all); a final
    metrics snapshot rides along by default.  Returns counts per line
    type.  With ``account=True`` the export cost lands in the
    simulator's ``telemetry.export.<format>.*`` counters after the
    snapshot line is written — the file never contains them, but a
    re-export of the same sim then would, so accounting is opt-in to
    keep repeated exports byte-identical by default.  Raises
    :class:`ConfigurationError` for a tracer in ``stream`` mode, which
    stored nothing to export, before the file is opened.
    """
    if sim.tracer.mode == "stream":
        raise ConfigurationError(
            "cannot export a tracer in 'stream' mode: it stores no "
            "records or spans; write them live with open_writer()")
    counts = {"records": 0, "spans": 0, "metrics": 0}
    registry = sim.metrics if account else None
    with open_writer(path, metrics=registry) as writer:
        for record in sim.tracer.records:
            if not prefix or record.matches(prefix):
                writer.write_record(record)
                counts["records"] += 1
        for span in sim.tracer.spans:
            if not prefix or span.matches(prefix):
                writer.write_span(span)
                counts["spans"] += 1
        if include_metrics:
            writer.write_metrics(sim.metrics.snapshot())
            counts["metrics"] = 1
    return counts


def read_columnar(path: pathlib.Path) -> List[Dict[str, Any]]:
    """Parse a columnar telemetry file back into logical line dicts.

    Returns the same dicts :func:`~repro.telemetry.jsonl.read_jsonl`
    yields for the equivalent JSONL export — records in emit order, then
    spans, then metrics snapshots — so consumers are format-agnostic.
    """
    with np.load(path) as archive:
        columns = {key: archive[key] for key in archive.files}
    strings = _pool_strings(columns["pool_bytes"], columns["pool_len"])
    lines: List[Dict[str, Any]] = []
    rec_time = columns["rec_time"].tolist()
    rec_category = columns["rec_category"].tolist()
    rec_source = columns["rec_source"].tolist()
    rec_message = columns["rec_message"].tolist()
    rec_data = columns["rec_data"].tolist()
    for i in range(len(rec_time)):
        lines.append({
            "type": "record",
            "time": rec_time[i],
            "category": strings[rec_category[i]],
            "source": strings[rec_source[i]],
            "message": strings[rec_message[i]],
            "data": json.loads(strings[rec_data[i]]),
        })
    span_id = columns["span_id"].tolist()
    span_parent = columns["span_parent"].tolist()
    span_category = columns["span_category"].tolist()
    span_source = columns["span_source"].tolist()
    span_status = columns["span_status"].tolist()
    span_start = columns["span_start"].tolist()
    span_end = columns["span_end"].tolist()
    span_data = columns["span_data"].tolist()
    for i in range(len(span_id)):
        end = span_end[i]
        lines.append({
            "type": "span",
            "span_id": span_id[i],
            "parent_id": None if span_parent[i] == NO_PARENT
            else span_parent[i],
            "category": strings[span_category[i]],
            "source": strings[span_source[i]],
            "start": span_start[i],
            "end": None if np.isnan(end) else end,
            "status": strings[span_status[i]],
            "data": json.loads(strings[span_data[i]]),
        })
    for code in columns["met_data"].tolist():
        lines.append({"type": "metrics", **json.loads(strings[code])})
    return lines


def read_telemetry(path: pathlib.Path) -> List[Dict[str, Any]]:
    """Read a telemetry file by its suffix: columnar for ``.npz``, JSONL
    for anything else (the rule :func:`open_writer` writes by)."""
    if str(path).endswith(".npz"):
        return read_columnar(path)
    return read_jsonl(path)
