"""Tests for the reliable message transport."""

from __future__ import annotations

import pytest

from repro.kernel.errors import ConfigurationError, TransportError
from repro.net.frames import MTU_BYTES
from repro.net.stack import NetworkStack
from repro.net.transport import ReliableEndpoint
from tests.p2p_link import PointToPointLink


def _pair(sim, loss=0.0, rate=10e6, **kwargs):
    link = PointToPointLink(sim, "a", "b", rate_bps=rate, loss=loss)
    sa = NetworkStack(sim, link.a)
    sb = NetworkStack(sim, link.b)
    inbox = []
    ea = ReliableEndpoint(sim, sa, 50, **kwargs)
    eb = ReliableEndpoint(sim, sb, 50,
                          on_message=lambda src, obj, n: inbox.append((src, obj)),
                          **kwargs)
    return ea, eb, inbox


def test_small_message_delivery(sim):
    ea, _eb, inbox = _pair(sim)
    delivered = []
    ea.send("b", {"k": 1}, 100, on_delivered=lambda: delivered.append(sim.now))
    sim.run()
    assert inbox == [("a", {"k": 1})]
    assert len(delivered) == 1
    assert ea.messages_delivered == 1


def test_large_message_segmentation(sim):
    ea, eb, inbox = _pair(sim)
    size = 4 * MTU_BYTES + 37
    ea.send("b", "big", size)
    sim.run()
    assert inbox == [("a", "big")]
    assert eb.messages_received == 1


def test_zero_size_message(sim):
    ea, _eb, inbox = _pair(sim)
    ea.send("b", "tiny", 0)
    sim.run()
    assert inbox == [("a", "tiny")]


def test_delivery_over_lossy_link(sim):
    ea, _eb, inbox = _pair(sim, loss=0.3)
    for i in range(10):
        ea.send("b", i, 3000)
    sim.run(until=60.0)
    assert sorted(obj for _src, obj in inbox) == list(range(10))
    assert ea.messages_failed == 0


def test_no_duplicate_delivery_despite_retries(sim):
    ea, eb, inbox = _pair(sim, loss=0.4)
    ea.send("b", "once", 5000)
    sim.run(until=60.0)
    assert inbox == [("a", "once")]


def test_failure_after_max_retries(sim):
    # 100% loss: nothing ever arrives.
    ea, _eb, inbox = _pair(sim, loss=0.99, timeout=0.01, max_retries=3)
    failed = []
    ea.send("b", "doomed", 100, on_failed=lambda: failed.append(True))
    sim.run(until=120.0)
    # With 99% loss and only 3 retries the odds of success are negligible;
    # accept either exactly-one failure callback or (rarely) delivery.
    assert failed == [True] or inbox


def test_per_destination_serialisation(sim):
    """Two large messages to one peer must not interleave segments: the
    second starts only after the first completes."""
    ea, _eb, inbox = _pair(sim)
    order = []
    ea.send("b", "first", 6 * MTU_BYTES,
            on_delivered=lambda: order.append("first"))
    ea.send("b", "second", 6 * MTU_BYTES,
            on_delivered=lambda: order.append("second"))
    assert ea.pending() == 2
    sim.run()
    assert order == ["first", "second"]
    assert [obj for _s, obj in inbox] == ["first", "second"]


def test_cancel_pending_drops_queued_only(sim):
    ea, _eb, inbox = _pair(sim)
    failed = []
    ea.send("b", "head", 6 * MTU_BYTES)
    ea.send("b", "stale1", 100, on_failed=lambda: failed.append(1))
    ea.send("b", "stale2", 100, on_failed=lambda: failed.append(2))
    dropped = ea.cancel_pending("b")
    assert dropped == 2
    ea.send("b", "fresh", 100)
    sim.run()
    assert [obj for _s, obj in inbox] == ["head", "fresh"]
    assert sorted(failed) == [1, 2]


def test_window_limits_inflight(sim):
    link = PointToPointLink(sim, "a", "b", rate_bps=1e4)  # slow: frames pile up
    sa = NetworkStack(sim, link.a)
    ea = ReliableEndpoint(sim, sa, 50, window=4)
    ea.send("b", "big", 20 * MTU_BYTES)
    # Before any timer fires, exactly `window` segments have been handed
    # to the interface (1 serialising + 3 queued).
    assert link.a.frames_handed == 4


def test_closed_endpoint_rejects_send(sim):
    ea, _eb, _inbox = _pair(sim)
    ea.close()
    with pytest.raises(TransportError):
        ea.send("b", "x", 10)


def test_close_is_idempotent_and_unbinds(sim):
    ea, _eb, _inbox = _pair(sim)
    ea.send("b", "x", 10)
    ea.close()
    ea.close()
    assert ea.pending() == 0
    assert not ea.stack.is_bound(50)


def test_bidirectional_same_port(sim):
    ea, eb, inbox = _pair(sim)
    back = []
    ea.on_message = lambda src, obj, n: back.append(obj)
    ea.send("b", "ping", 10)
    eb.send("a", "pong", 10)
    sim.run()
    assert inbox == [("a", "ping")]
    assert back == ["pong"]


def test_parameter_validation(sim):
    link = PointToPointLink(sim, "a", "b")
    stack = NetworkStack(sim, link.a)
    with pytest.raises(ConfigurationError):
        ReliableEndpoint(sim, stack, 1, window=0)
    endpoint = ReliableEndpoint(sim, stack, 2)
    with pytest.raises(ConfigurationError):
        endpoint.send("b", "x", -5)


def test_message_counters(sim):
    ea, eb, _inbox = _pair(sim)
    ea.send("b", "x", 10)
    ea.send("b", "y", 10)
    sim.run()
    assert ea.messages_sent == 2
    assert ea.messages_delivered == 2
    assert eb.messages_received == 2
    assert eb.bytes_received == 20
