"""Tests for wired links, the stack, multicast and the bridge."""

from __future__ import annotations

import pytest

from repro.kernel.errors import ConfigurationError, NetworkError
from repro.net.bridge import Bridge
from repro.net.frames import Frame
from repro.net.link import WiredLink
from repro.net.stack import NetworkStack


# ---------------------------------------------------------------------------
# WiredLink
# ---------------------------------------------------------------------------

def test_wired_delivery_both_directions(sim):
    link = WiredLink(sim, "a", "b")
    got_a, got_b = [], []
    link.port_a.on_receive = got_a.append
    link.port_b.on_receive = got_b.append
    link.port_a.send("b", "to-b", 100)
    link.port_b.send("a", "to-a", 100)
    sim.run()
    assert got_b[0].payload == "to-b"
    assert got_a[0].payload == "to-a"


def test_wired_delay_and_serialisation(sim):
    link = WiredLink(sim, "a", "b", rate_bps=1e6, delay_s=0.01)
    arrivals = []
    link.port_b.on_receive = lambda f: arrivals.append(sim.now)
    link.port_a.send("b", None, 1000)
    sim.run()
    expected = 8 * (1000 + 34) / 1e6 + 0.01
    assert arrivals[0] == pytest.approx(expected)


def test_wired_fifo_serialisation_backlog(sim):
    link = WiredLink(sim, "a", "b", rate_bps=1e5, delay_s=0.0)
    arrivals = []
    link.port_b.on_receive = lambda f: arrivals.append((f.payload, sim.now))
    for i in range(3):
        link.port_a.send("b", i, 1000)
    sim.run()
    assert [p for p, _t in arrivals] == [0, 1, 2]
    gaps = [arrivals[i + 1][1] - arrivals[i][1] for i in range(2)]
    per_frame = 8 * 1034 / 1e5
    for gap in gaps:
        assert gap == pytest.approx(per_frame)


def test_wired_loss(sim):
    link = WiredLink(sim, "a", "b", loss=0.5, queue_frames=256)
    got = []
    link.port_b.on_receive = got.append
    for _ in range(200):
        link.port_a.send("b", None, 10)
    sim.run()
    assert 40 < len(got) < 160
    assert link.frames_lost == 200 - len(got)


def test_wired_queue_overflow(sim):
    link = WiredLink(sim, "a", "b", rate_bps=1e3, queue_frames=2)
    accepted = [link.port_a.send("b", None, 1000) for _ in range(10)]
    assert accepted.count(False) > 0


def test_wired_validation(sim):
    with pytest.raises(ConfigurationError):
        WiredLink(sim, "a", "a")
    with pytest.raises(ConfigurationError):
        WiredLink(sim, "a", "b", loss=1.0)
    with pytest.raises(ConfigurationError):
        WiredLink(sim, "a", "b", rate_bps=0)


def test_other_end(sim):
    link = WiredLink(sim, "a", "b")
    assert link.other_end("a") is link.port_b
    assert link.other_end("b") is link.port_a
    with pytest.raises(ConfigurationError):
        link.other_end("c")


# ---------------------------------------------------------------------------
# NetworkStack
# ---------------------------------------------------------------------------

def _stack_pair(sim):
    link = WiredLink(sim, "a", "b")
    return NetworkStack(sim, link.port_a), NetworkStack(sim, link.port_b)


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


# ---------------------------------------------------------------------------
# Bridge
# ---------------------------------------------------------------------------

def test_bridge_floods_then_forwards(sim):
    link1 = WiredLink(sim, "host1", "br-p1")
    link2 = WiredLink(sim, "host2", "br-p2")
    bridge = Bridge(sim)
    bridge.attach(link1.port_b)
    bridge.attach(link2.port_b)
    s1 = NetworkStack(sim, link1.port_a)
    s2 = NetworkStack(sim, link2.port_a)
    got = []
    s2.bind(5, got.append)
    s1.send("host2", "first", 10, port=5)  # unknown dst -> flood
    sim.run()
    assert got[0].payload == "first"
    assert bridge.flooded >= 1
    s2.send("host1", "reply", 10, port=5)
    s1.bind(5, got.append)
    sim.run()
    # host1 was learned from the first frame: forwarded, not flooded.
    assert bridge.forwarded >= 1
    assert bridge.learned()["host1"] == "br-p1"


def test_bridge_filters_same_segment(sim):
    link1 = WiredLink(sim, "host1", "br-p1")
    bridge = Bridge(sim)
    bridge.attach(link1.port_b)
    # host1 sends to an address learned on its own port.
    link1.port_a.send_frame(Frame("host1", "host1b", None, 10))
    sim.run()
    link1.port_a.send_frame(Frame("host1b", "host1", None, 10))
    sim.run()
    assert bridge.filtered >= 1


def test_bridge_duplicate_interface_rejected(sim):
    link = WiredLink(sim, "x", "y")
    bridge = Bridge(sim)
    bridge.attach(link.port_a)
    with pytest.raises(ConfigurationError):
        bridge.attach(link.port_a)
