"""Tests for counters, gauges, latency and statistics."""

from __future__ import annotations

import pytest

from repro.kernel.errors import ConfigurationError
from repro.metrics.counters import Counter, CounterSet, Gauge
from repro.metrics.recorder import LatencyRecorder
from repro.metrics.stats import (
    confidence_halfwidth,
    jains_fairness,
    ratio,
    summarize,
)


# ---------------------------------------------------------------------------
# Counter / Gauge
# ---------------------------------------------------------------------------

def test_counter_add_and_rate():
    counter = Counter("frames")
    counter.add()
    counter.add(4)
    assert counter.value == 5
    assert counter.rate(10.0) == 0.5
    assert counter.rate(0.0) == 0.0


def test_counter_rejects_negative():
    with pytest.raises(ConfigurationError):
        Counter("x").add(-1)


def test_counter_set_creates_on_demand():
    counters = CounterSet()
    counters["tx"].add(2)
    counters["rx"].add(1)
    assert counters.snapshot() == {"rx": 1.0, "tx": 2.0}


def test_gauge_time_average(sim):
    gauge = Gauge(sim, "queue")
    sim.schedule(2.0, gauge.set, 10.0)
    sim.schedule(6.0, gauge.set, 0.0)
    sim.run(until=10.0)
    # 0 for 2 s, 10 for 4 s, 0 for 4 s -> 40/10 = 4
    assert gauge.time_average() == pytest.approx(4.0)
    assert gauge.peak == 10.0


def test_gauge_adjust(sim):
    gauge = Gauge(sim, "sessions")
    gauge.adjust(+1)
    gauge.adjust(+1)
    gauge.adjust(-1)
    assert gauge.value == 1


# ---------------------------------------------------------------------------
# LatencyRecorder
# ---------------------------------------------------------------------------

def test_latency_pairing(sim):
    recorder = LatencyRecorder(sim, "rpc")
    recorder.start("a")
    sim.schedule(1.5, recorder.stop, "a")
    sim.run()
    assert recorder.samples == [1.5]
    assert recorder.summary().mean == pytest.approx(1.5)


def test_latency_unmatched_stop(sim):
    recorder = LatencyRecorder(sim, "rpc")
    assert recorder.stop("ghost") is None
    assert recorder.unmatched_stops == 1


def test_latency_restart_abandons(sim):
    recorder = LatencyRecorder(sim, "rpc")
    recorder.start("a")
    recorder.start("a")
    assert recorder.abandoned == 1
    assert recorder.pending() == 1


def test_latency_cancel(sim):
    recorder = LatencyRecorder(sim, "rpc")
    recorder.start("a")
    recorder.cancel("a")
    assert recorder.pending() == 0
    assert recorder.abandoned == 1


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------

def test_summarize_basic():
    summary = summarize([1.0, 2.0, 3.0, 4.0])
    assert summary.n == 4
    assert summary.mean == pytest.approx(2.5)
    assert summary.minimum == 1.0 and summary.maximum == 4.0
    assert summary.p50 == pytest.approx(2.5)


def test_summarize_empty_and_single():
    assert summarize([]).n == 0
    single = summarize([7.0])
    assert single.std == 0.0 and single.mean == 7.0


def test_summary_str():
    assert "mean=" in str(summarize([1.0, 2.0]))


def test_confidence_halfwidth():
    assert confidence_halfwidth([5.0]) == 0.0
    hw = confidence_halfwidth([1.0, 2.0, 3.0, 4.0, 5.0])
    assert hw > 0.0


def test_ratio_safe():
    assert ratio(4.0, 2.0) == 2.0
    assert ratio(4.0, 0.0) == 0.0


def test_jains_fairness_properties():
    assert jains_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)
    skewed = jains_fairness([10.0, 0.0, 0.0])
    assert skewed == pytest.approx(1 / 3)
    assert jains_fairness([0.0, 0.0]) == 1.0
    with pytest.raises(ConfigurationError):
        jains_fairness([])
