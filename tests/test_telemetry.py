"""Tests for the telemetry pipeline: JSONL export, run summaries, layer
reports, and end-to-end causal-tree reconstruction over the wireless stack."""

from __future__ import annotations

from repro.env.world import World
from repro.net.stack import NetworkStack
from repro.net.transport import ReliableEndpoint
from repro.phys.mac import WirelessMedium
from repro.phys.nic import WirelessNIC
from repro.services.sessions import SessionManager
from repro.telemetry.columnar import write_run
from repro.telemetry.jsonl import read_jsonl, span_ancestry_categories, span_lines
from repro.telemetry.report import layer_report
from repro.telemetry.streaming import StreamingAggregator


# ---------------------------------------------------------------------------
# JSONL round-trip
# ---------------------------------------------------------------------------

def test_jsonl_round_trip(sim, tmp_path):
    sim.trace("mac.tx", "a", "frame out", bytes=100)
    with sim.span("work", "tester", item=1):
        pass
    sim.metrics.counter("mac.drops").add(2)
    path = tmp_path / "run.jsonl"
    counts = write_run(path, sim)
    assert counts == {"records": 1, "spans": 1, "metrics": 1}
    lines = read_jsonl(path)
    assert [line["type"] for line in lines] == ["record", "span", "metrics"]
    record, span, metrics = lines
    assert record["category"] == "mac.tx"
    assert record["data"] == {"bytes": 100}
    assert span["status"] == "ok"
    assert span["data"] == {"item": 1}
    assert metrics["counters"] == {"mac.drops": 2}


def test_jsonl_prefix_filter_and_unserialisable_payload(sim, tmp_path):
    sim.trace("mac.tx", "a", "kept", obj=object())  # repr-degraded, not fatal
    sim.trace("session.grant", "b", "filtered")
    path = tmp_path / "run.jsonl"
    counts = write_run(path, sim, prefix="mac", include_metrics=False)
    assert counts["records"] == 1
    (line,) = read_jsonl(path)
    assert line["message"] == "kept"
    assert line["data"]["obj"].startswith("<object object")


def test_jsonl_export_is_deterministic(sim, tmp_path):
    for i in range(3):
        sim.trace("tick", "t", str(i), n=i)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_run(a, sim)
    write_run(b, sim)
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# End-to-end: reconstruct a frame's journey across the stack from the export
# ---------------------------------------------------------------------------

def _wireless_pair(sim):
    world = World(100.0, 60.0)
    medium = WirelessMedium(sim, world)
    world.place("laptop", (10, 10))
    world.place("adapter", (15, 10))
    nic_a = WirelessNIC(sim, medium, "laptop")
    nic_b = WirelessNIC(sim, medium, "adapter")
    stack_a = NetworkStack(sim, nic_a)
    stack_b = NetworkStack(sim, nic_b)
    return stack_a, stack_b


def test_multi_hop_span_tree_from_export(sim, tmp_path):
    """A message's journey — transport.send -> mac.tx -> transport.deliver
    -> session.acquire — is reconstructable from the JSONL export alone."""
    stack_a, stack_b = _wireless_pair(sim)
    sessions = SessionManager(sim, "projection", use_leases=False)

    def on_message(src: str, _obj, _n: int) -> None:
        sessions.acquire(src)

    sender = ReliableEndpoint(sim, stack_a, 50)
    ReliableEndpoint(sim, stack_b, 50, on_message=on_message)
    sender.send("adapter", {"cmd": "project"}, 400)
    sim.run(until=5.0)
    assert sessions.holder == "laptop"

    path = tmp_path / "journey.jsonl"
    write_run(path, sim)
    lines = read_jsonl(path)
    acquires = [s for s in span_lines(lines)
                if s["category"] == "session.acquire"]
    assert len(acquires) == 1
    chain = span_ancestry_categories(lines, acquires[0]["span_id"])
    assert chain[0] == "session.acquire"
    assert chain[1] == "transport.deliver"
    assert "mac.tx" in chain
    assert chain[-1] == "transport.send"
    # The deliver hop sits below the airtime hop, which sits below the send.
    assert chain.index("transport.deliver") < chain.index("mac.tx")


def test_transport_failure_closes_span_as_failed(sim, tmp_path):
    """An undeliverable message leaves a 'failed' transport.send span."""
    stack_a, _stack_b = _wireless_pair(sim)
    sender = ReliableEndpoint(sim, stack_a, 50, timeout=0.05, max_retries=1)
    sender.send("nobody-home", "lost", 100)
    sim.run(until=10.0)
    sends = sim.tracer.select_spans("transport.send")
    assert [s.status for s in sends] == ["failed"]


# ---------------------------------------------------------------------------
# Run summaries (what sweeps ship across the fork pipe)
# ---------------------------------------------------------------------------

def test_telemetry_summary_counts_and_classifies(sim):
    aggregator = StreamingAggregator(user_sources={"alice"}).attach(sim)
    sim.trace("mac.tx", "a", "out")
    sim.issue("radio", "a", "multipath fade")
    sim.issue("goal", "alice", "projection expectation unmet")
    sim.metrics.counter("mac.drops").add()
    summary = aggregator.summary()
    assert summary["records"] == 3  # issues are records too
    assert summary["issues_by_layer"]["environment"] == 1
    assert summary["issues_by_layer"]["intentional"] == 1
    assert summary["issues_by_column"] == {"device": 1, "user": 1}
    assert summary["metrics"]["counters"]["mac.drops"] == 1
    assert sim.metrics.closed  # summary is the end-of-run harvest


def test_sweep_ships_telemetry_serial_and_parallel():
    """E2 rows stay identical under workers>1 and every point carries a
    telemetry summary (the raw trace never crosses the pipe)."""
    from repro.experiments.e2_interference import run as e2_run

    serial = e2_run(densities=(0, 1), duration=2.0,
                    channel_plans=("cochannel",))
    parallel = e2_run(densities=(0, 1), duration=2.0,
                      channel_plans=("cochannel",), workers=2)
    assert serial.rows == parallel.rows
    assert len(serial.telemetry) == len(serial.rows)
    assert all(entry is not None for entry in serial.telemetry)
    assert serial.telemetry == parallel.telemetry
    assert "telemetry" not in serial.columns
    for entry in serial.telemetry:
        assert entry["metrics"]["counters"]["medium.transmissions"] >= 0


# ---------------------------------------------------------------------------
# Layer report
# ---------------------------------------------------------------------------

def test_layer_report_places_issues_in_both_columns(sim):
    aggregator = StreamingAggregator(user_sources={"alice"}).attach(sim)
    sim.issue("radio", "adapter", "interference burst")
    sim.issue("goal", "alice", "meeting started late")
    sim.metrics.counter("mac.drops").add(4)
    report = layer_report(aggregator)
    assert "LPC run report" in report
    lines = report.splitlines()
    env_row = next(line for line in lines if line.startswith("Environment"))
    intent_row = next(line for line in lines if line.startswith("Intentional"))
    # Device column count for the radio issue, user column for the goal.
    assert env_row.split()[-2] == "1" or "1" in env_row
    assert intent_row.rstrip().endswith("1")
    assert "mac.drops" in report
    assert report.endswith("\n")


def test_layer_report_is_deterministic(sim):
    first, second = (StreamingAggregator(user_sources={"u"}).attach(sim)
                     for _ in range(2))
    sim.issue("radio", "a", "fade")
    assert layer_report(first) == layer_report(second)
