"""The one fold of a run's telemetry, taken live.

:class:`StreamingAggregator` reduces a run's trace to fixed-size state:
LPC issue counts per layer/column (via
:class:`~repro.core.concerns.ConcernClassifier`), record/span totals,
and per-category span-duration histograms over fixed log-spaced
buckets.  Memory is O(layers + categories), never O(events).

:meth:`StreamingAggregator.attach` subscribes to a simulator's tracer
before the run and folds each issue and each ended span *as it
happens*; the record and span totals are the tracer's own counts,
taken at attach and at read-out.  It works in either tracer mode, and
in ``stream`` mode, which stores nothing, it is the only record of the
run: sweeps use it so only the folded aggregate crosses the fork pipe,
and ``repro.cli report --lpc`` attaches one to the scripted week.

The tests hold this fold to an oracle that folds the same run's stored
trace after the fact: the same summary (key order included), the same
layer report and the same span histograms, on generated programs too.
Past ``max_categories`` span categories, which ones fold into
``"__other__"`` follows fold order, so there the histograms may differ.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.concerns import ConcernClassifier
from ..core.layers import Column, Layer
from ..kernel.errors import ConfigurationError
from ..kernel.scheduler import Simulator
from ..kernel.trace import Span, TraceRecord

#: Log-spaced span-duration bucket edges (simulated seconds): a decade per
#: bucket from 1 µs to 1 Ms, with an underflow and an overflow bucket.
DEFAULT_SPAN_EDGES: Tuple[float, ...] = tuple(
    10.0 ** k for k in range(-6, 7))

#: Distinct span categories histogrammed before folding into the overflow
#: key — the bound that keeps aggregator memory fixed on hostile input.
DEFAULT_MAX_CATEGORIES = 64

#: Catch-all histogram key once ``max_categories`` is exhausted.
OVERFLOW_CATEGORY = "__other__"


def _new_histogram() -> Dict[str, Any]:
    # "sum" holds exact partial sums until read out (see _add_exact).
    return {"count": 0, "sum": [], "min": None, "max": None,
            "buckets": [0] * (len(DEFAULT_SPAN_EDGES) + 1)}


def _add_exact(partials: List[float], value: float) -> None:
    """Add ``value`` to the exact sum ``partials`` holds as
    non-overlapping floats (Shewchuk's algorithm, the one behind
    ``math.fsum``).  ``math.fsum(partials)`` then rounds once, so a
    histogram's sum does not depend on the order its spans were folded
    in: a live fold sees spans in end order, a fold of the stored trace
    in begin order."""
    i = 0
    for partial in partials:
        if abs(value) < abs(partial):
            value, partial = partial, value
        high = value + partial
        low = partial - (high - value)
        if low:
            partials[i] = low
            i += 1
        value = high
    partials[i:] = [value]


class StreamingAggregator:
    """Folds tracer output into O(1) memory in the event count.

    Args:
        user_sources: component names whose issues land in the *user*
            column; every other source is a device.
        max_categories: distinct span categories before new ones fold
            into ``"__other__"``.

    Feed it once, through :meth:`attach` before the run.
    """

    def __init__(self, user_sources: Iterable[str] = (),
                 max_categories: int = DEFAULT_MAX_CATEGORIES) -> None:
        self._classifier = ConcernClassifier()
        self._users = frozenset(user_sources)
        self._max_categories = max_categories
        self.issues_seen = 0
        self.spans_ended = 0
        self.unclassified = 0
        self._grid: Dict[Tuple[Layer, Column], int] = {}
        self._issues_by_layer: Dict[str, int] = {}
        self._issues_by_column: Dict[str, int] = {}
        self._histograms: Dict[str, Dict[str, Any]] = {}
        self._sim: Optional[Simulator] = None
        #: The tracer's (records appended, spans begun) at attach.
        self._origin = (0, 0)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, sim: Simulator) -> "StreamingAggregator":
        """Fold ``sim``'s issues and ended spans from now on.

        Subscribes to ``issue`` records and to span ends only, so no
        record object is built for a record that is not an issue; the
        record and span totals are the tracer's counts since now.
        Raises :class:`ConfigurationError` if the aggregator was fed
        before: a second feed would count every issue and span twice.
        """
        if self._sim is not None:
            raise ConfigurationError(
                "this StreamingAggregator is already fed; build one per "
                "run")
        self._sim = sim
        tracer = sim.tracer
        self._origin = (tracer.records_appended, tracer.spans_begun)
        tracer.subscribe("issue", self._fold_issue)
        tracer.add_span_hook(self.on_span_end)
        return self

    # ------------------------------------------------------------------
    # Fold callbacks
    # ------------------------------------------------------------------
    def _fold_issue(self, record: TraceRecord) -> None:
        self.issues_seen += 1
        try:
            concern = self._classifier.from_trace(record, self._users)
        except Exception:
            # An unplaceable issue counts under "unclassified" and must
            # never kill the run that emitted it.
            self.unclassified += 1
            self._issues_by_layer["unclassified"] = \
                self._issues_by_layer.get("unclassified", 0) + 1
            return
        column = (Column.USER if concern.column == Column.USER
                  else Column.DEVICE)
        key = (concern.layer, column)
        self._grid[key] = self._grid.get(key, 0) + 1
        layer_name = concern.layer.name.lower()
        self._issues_by_layer[layer_name] = \
            self._issues_by_layer.get(layer_name, 0) + 1
        column_name = "user" if column == Column.USER else "device"
        self._issues_by_column[column_name] = \
            self._issues_by_column.get(column_name, 0) + 1

    def on_span_end(self, span: Span) -> None:
        self._fold_span(span.category, span.start, span.end)

    def _fold_span(self, category: str, start: float, end: float) -> None:
        self.spans_ended += 1
        hist = self._histograms.get(category)
        if hist is None:
            if len(self._histograms) >= self._max_categories:
                category = OVERFLOW_CATEGORY
                hist = self._histograms.get(category)
            if hist is None:
                hist = self._histograms[category] = _new_histogram()
        duration = end - start
        hist["count"] += 1
        _add_exact(hist["sum"], duration)
        hist["min"] = (duration if hist["min"] is None
                       else min(hist["min"], duration))
        hist["max"] = (duration if hist["max"] is None
                       else max(hist["max"], duration))
        hist["buckets"][bisect.bisect_right(DEFAULT_SPAN_EDGES,
                                            duration)] += 1

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    @property
    def sim(self) -> Simulator:
        """The attached simulator (raises if none)."""
        if self._sim is None:
            raise ValueError(
                "StreamingAggregator has no simulator — attach() one")
        return self._sim

    def _totals(self) -> Tuple[int, int]:
        """Records appended and spans begun since attach."""
        if self._sim is None:
            return 0, 0
        tracer = self._sim.tracer
        return (tracer.records_appended - self._origin[0],
                tracer.spans_begun - self._origin[1])

    @property
    def records_seen(self) -> int:
        """Records the tracer took since attach."""
        return self._totals()[0]

    @property
    def spans_begun(self) -> int:
        """Spans begun since attach."""
        return self._totals()[1]

    @property
    def spans_open(self) -> int:
        return self.spans_begun - self.spans_ended

    def layer_counts(self) -> Tuple[Dict[Tuple[Layer, Column], int], int]:
        """The LPC grid and the unclassified count — the report's input."""
        return dict(self._grid), self.unclassified

    def span_histograms(self) -> Dict[str, Dict[str, Any]]:
        """Per-category duration histograms of ended spans, sorted."""
        return {category: dict(hist, sum=math.fsum(hist["sum"]),
                               buckets=list(hist["buckets"]))
                for category, hist in sorted(self._histograms.items())}

    def summary(self) -> Dict[str, Any]:
        """The run in a few hundred bytes of JSON/pickle-friendly dict.

        Event totals, trace volume, issues bucketed by LPC layer and
        column (unplaceable ones under ``"unclassified"``), and the final
        metrics snapshot.  A parallel sweep ships this instead of the raw
        trace.  Closes the metrics registry (still-open latency
        measurements become ``abandoned``), so call it when the run is
        over.  ``records_dropped`` is always 0: the tracer drops nothing,
        and the key stays so pinned summaries keep their bytes.
        """
        sim = self.sim
        return {
            "sim_time": sim.now,
            "events_executed": sim.events_executed,
            "records": self.records_seen,
            "records_dropped": 0,
            "spans": self.spans_begun,
            "spans_open": self.spans_open,
            "issues_by_layer": dict(sorted(self._issues_by_layer.items())),
            "issues_by_column": dict(sorted(self._issues_by_column.items())),
            "metrics": sim.metrics.close(),
        }
