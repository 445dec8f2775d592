"""Per-simulator metrics registry: named instruments, one snapshot call.

Before this module, every component owned free-floating ``Counter`` /
``Gauge`` / ``LatencyRecorder`` instances (or bare ints), and harvesting a
run meant knowing every component's private attribute.  The registry gives
each :class:`~repro.kernel.scheduler.Simulator` one place where instruments
are created by name (``sim.metrics.counter("mac.queue_drops")``) and one
:meth:`MetricsRegistry.snapshot` that serialises everything — which is what
the telemetry exporter, the sweep summaries and the run report consume.

Access it through the lazy ``Simulator.metrics`` property (this module
imports the scheduler, so the scheduler cannot import it back eagerly).

Naming conventions:

* dotted, component-first: ``mac.queue_drops``, ``leases.granted``,
  ``session.projector.wait``.
* *aggregate* instruments (one per simulation, many writers) are created
  with the default get-or-create semantics;
* *per-component* instruments pass ``unique=True`` so a second component
  with the same name gets ``name#2`` instead of silently sharing — several
  ``WirelessMedium`` instances on one simulator is a real pattern in tests.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from ..kernel.errors import ConfigurationError
from ..kernel.scheduler import Simulator
from .counters import Counter, Gauge
from .recorder import LatencyRecorder


class MetricsRegistry:
    """Owns every named instrument of one simulation run."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._latencies: Dict[str, LatencyRecorder] = {}
        self._probes: Dict[str, Callable[[], Dict[str, Any]]] = {}
        self.closed = False

    # ------------------------------------------------------------------
    # Instrument creation
    # ------------------------------------------------------------------
    def _unique_name(self, name: str, existing: Dict[str, Any]) -> str:
        if name not in existing:
            return name
        suffix = 2
        while f"{name}#{suffix}" in existing:
            suffix += 1
        return f"{name}#{suffix}"

    def counter(self, name: str, unique: bool = False) -> Counter:
        """Get or create the counter ``name``.

        With ``unique=True`` a fresh counter is always created, the name
        auto-suffixed (``#2``, ``#3``…) on collision — for per-component
        instruments that must never share.
        """
        if unique:
            name = self._unique_name(name, self._counters)
        elif name in self._counters:
            return self._counters[name]
        self._check_collision(name, self._counters)
        counter = Counter(name)
        self._counters[name] = counter
        return counter

    def gauge(self, name: str, initial: float = 0.0,
              unique: bool = False) -> Gauge:
        """Get or create the gauge ``name`` (``unique`` as for counters)."""
        if unique:
            name = self._unique_name(name, self._gauges)
        elif name in self._gauges:
            return self._gauges[name]
        self._check_collision(name, self._gauges)
        gauge = Gauge(self.sim, name, initial)
        self._gauges[name] = gauge
        return gauge

    def latency(self, name: str, unique: bool = False) -> LatencyRecorder:
        """Get or create the latency recorder ``name``."""
        if unique:
            name = self._unique_name(name, self._latencies)
        elif name in self._latencies:
            return self._latencies[name]
        self._check_collision(name, self._latencies)
        recorder = LatencyRecorder(self.sim, name)
        self._latencies[name] = recorder
        return recorder

    def register_probe(self, name: str,
                       fn: Callable[[], Dict[str, Any]],
                       ) -> Callable[[], None]:
        """Register ``fn`` to contribute a dict under ``name`` at snapshot.

        Probes pull live component state (a MAC's stats dict, a queue's
        depth) without the component pushing every change through an
        instrument.  Name collisions auto-suffix; returns an unregister
        function.
        """
        name = self._unique_name(name, self._probes)
        self._probes[name] = fn

        def unregister() -> None:
            self._probes.pop(name, None)

        return unregister

    def _check_collision(self, name: str, own: Dict[str, Any]) -> None:
        for kind, table in (("counter", self._counters),
                            ("gauge", self._gauges),
                            ("latency", self._latencies)):
            if table is not own and name in table:
                raise ConfigurationError(
                    f"metric name {name!r} already used by a {kind}")

    # ------------------------------------------------------------------
    # Harvest
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Serialise every instrument into one JSON-ready dict.

        Keys are sorted for deterministic output (reports and JSONL exports
        must be byte-identical for the same seed).
        """
        counters = {name: c.value
                    for name, c in sorted(self._counters.items())}
        gauges = {name: {"value": g.value,
                         "time_average": g.time_average(),
                         "peak": g.peak}
                  for name, g in sorted(self._gauges.items())}
        latencies = {}
        for name, recorder in sorted(self._latencies.items()):
            summary = recorder.summary()
            latencies[name] = {
                "n": summary.n,
                "mean": summary.mean,
                "p50": summary.p50,
                "p95": summary.p95,
                "max": summary.maximum,
                "pending": recorder.pending(),
                "abandoned": recorder.abandoned,
                "unmatched_stops": recorder.unmatched_stops,
            }
        probes = {name: fn() for name, fn in sorted(self._probes.items())}
        return {
            "time": self.sim.now,
            "counters": counters,
            "gauges": gauges,
            "latencies": latencies,
            "probes": probes,
        }

    def close(self) -> Dict[str, Any]:
        """End-of-run flush: close every latency recorder (their still-open
        starts become ``abandoned``) and return a final snapshot.
        Idempotent."""
        if not self.closed:
            self.closed = True
            for recorder in self._latencies.values():
                recorder.close()
        return self.snapshot()
