"""Tests for the stack and multicast."""

from __future__ import annotations

import pytest

from repro.kernel.errors import ConfigurationError, NetworkError
from repro.net.frames import Frame
from repro.net.stack import NetworkStack
from tests.p2p_link import PointToPointLink


# ---------------------------------------------------------------------------
# NetworkStack
# ---------------------------------------------------------------------------

def _stack_pair(sim):
    link = PointToPointLink(sim, "a", "b")
    return NetworkStack(sim, link.a), NetworkStack(sim, link.b)


def test_stack_port_demux(sim):
    sa, sb = _stack_pair(sim)
    got7, got9 = [], []
    sb.bind(7, got7.append)
    sb.bind(9, got9.append)
    sa.send("b", "seven", 10, port=7)
    sa.send("b", "nine", 10, port=9)
    sim.run()
    assert got7[0].payload == "seven"
    assert got9[0].payload == "nine"


def test_stack_unbound_port_counted(sim):
    sa, sb = _stack_pair(sim)
    sa.send("b", None, 10, port=42)
    sim.run()
    assert sb.rx_unbound == 1


def test_stack_unbound_text_is_one_string_per_port(sim):
    """Every unbound frame on one port traces the same text object, so a
    stored trace keeps one copy of it per port."""
    sa, _sb = _stack_pair(sim)
    for port in (42, 42, 7):
        sa.send("b", None, 10, port=port)
    sim.run()
    first, second, other = [r.message for r in sim.tracer.select("stack")]
    assert first == second == "no listener on port 42"
    assert first is second
    assert other == "no listener on port 7"


def test_stack_double_bind_rejected(sim):
    sa, _sb = _stack_pair(sim)
    sa.bind(1, lambda f: None)
    with pytest.raises(NetworkError):
        sa.bind(1, lambda f: None)


def test_stack_unbind(sim):
    sa, sb = _stack_pair(sim)
    unbind = sb.bind(1, lambda f: None)
    unbind()
    assert not sb.is_bound(1)
    sb.bind(1, lambda f: None)  # rebinding now works


def test_stack_ignores_frames_for_others(sim):
    sa, sb = _stack_pair(sim)
    got = []
    sb.bind(1, got.append)
    # Address the frame to a third party; the wire still carries it.
    sa.interface.send_frame(Frame("a", "charlie", None, 10, port=1))
    sim.run()
    assert got == []


def test_stack_negative_port_rejected(sim):
    sa, _sb = _stack_pair(sim)
    with pytest.raises(ConfigurationError):
        sa.bind(-1, lambda f: None)


# ---------------------------------------------------------------------------
# Multicast
# ---------------------------------------------------------------------------

def _wireless_pair(sim, world, medium):
    from repro.phys.devices import Device

    a = Device(sim, world, "ma", (10, 10), medium=medium)
    b = Device(sim, world, "mb", (12, 10), medium=medium)
    return a, b


def test_multicast_group_delivery(sim, world, medium):
    a, b = _wireless_pair(sim, world, medium)
    got = []
    b.multicast.join("news", lambda src, data: got.append((src, data)))
    a.multicast.send("news", {"headline": "hi"})
    sim.run(until=1.0)
    assert got == [("ma", {"headline": "hi"})]


def test_multicast_nonmember_filtered(sim, world, medium):
    a, b = _wireless_pair(sim, world, medium)
    got = []
    b.multicast.join("sports", lambda src, data: got.append(data))
    a.multicast.send("news", "x")
    sim.run(until=1.0)
    assert got == []
    assert b.multicast.datagrams_filtered == 1


def test_multicast_leave(sim, world, medium):
    a, b = _wireless_pair(sim, world, medium)
    got = []
    leave = b.multicast.join("news", lambda src, data: got.append(data))
    leave()
    a.multicast.send("news", "x")
    sim.run(until=1.0)
    assert got == []
    assert not b.multicast.member_of("news")


def test_multicast_empty_group_rejected(sim, world, medium):
    a, _b = _wireless_pair(sim, world, medium)
    with pytest.raises(ConfigurationError):
        a.multicast.send("", "x")
    with pytest.raises(ConfigurationError):
        a.multicast.join("", lambda s, d: None)
