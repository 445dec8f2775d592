"""Measurement: counters, gauges, latency, summary stats."""

from ..kernel.lazy import lazy_exports

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "Counter": "counters",
    "CounterSet": "counters",
    "Gauge": "counters",
    "LatencyRecorder": "recorder",
    "MetricsRegistry": "registry",
    "Summary": "stats",
    "confidence_halfwidth": "stats",
    "jains_fairness": "stats",
    "ratio": "stats",
    "summarize": "stats",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
