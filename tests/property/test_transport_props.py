"""Property-based tests: exactly-once transport delivery and framebuffer
accounting invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from tests.p2p_link import PointToPointLink

from repro.kernel.scheduler import Simulator
from repro.net.stack import NetworkStack
from repro.net.transport import ReliableEndpoint
from repro.services.framebuffer import Framebuffer

messages = st.lists(
    st.integers(min_value=0, max_value=20_000),  # message sizes
    min_size=1, max_size=8)
loss_rates = st.sampled_from([0.0, 0.1, 0.3, 0.5])


@given(messages, loss_rates, st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_exactly_once_in_order_per_peer(sizes, loss, seed):
    """Whatever the sizes and loss rate, every message is delivered
    exactly once and in order (per-destination serialisation)."""
    sim = Simulator(seed=seed, trace=False)
    link = PointToPointLink(sim, "a", "b", loss=loss)
    sa, sb = NetworkStack(sim, link.a), NetworkStack(sim, link.b)
    inbox = []
    ReliableEndpoint(sim, sb, 5,
                     on_message=lambda src, obj, n: inbox.append(obj))
    tx = ReliableEndpoint(sim, sa, 5, max_retries=40)
    for i, size in enumerate(sizes):
        tx.send("b", i, size)
    sim.run(until=600.0)
    assert inbox == list(range(len(sizes)))


rects = st.tuples(
    st.integers(min_value=0, max_value=1023),
    st.integers(min_value=0, max_value=767),
    st.integers(min_value=1, max_value=512),
    st.integers(min_value=1, max_value=512),
    st.floats(min_value=0.01, max_value=1.0))


@given(st.lists(rects, min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_framebuffer_dirty_cost_matches_update_list(touches):
    fb = Framebuffer(1024, 768, tile=64)
    checkpoint = 0
    for x, y, w, h, ratio in touches:
        fb.touch_rect(x, y, w, h, ratio)
    tiles, cost, pixels = fb.dirty_cost(checkpoint)
    updates = fb.dirty_since(checkpoint)
    assert tiles == len(updates)
    assert cost == sum(u.payload_bytes for u in updates)
    assert pixels == sum(u.pixels for u in updates)
    # Full dirty set never exceeds the whole screen's pixels.
    assert pixels <= fb.total_pixels


@given(st.lists(rects, min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_framebuffer_versions_monotone_and_settle(touches):
    fb = Framebuffer(1024, 768, tile=64)
    previous = fb.version
    for x, y, w, h, ratio in touches:
        fb.touch_rect(x, y, w, h, ratio)
        assert fb.version > previous
        previous = fb.version
    # After syncing to the latest version nothing is dirty.
    assert fb.dirty_cost(fb.version) == (0, 0, 0)


wireless_distances = st.lists(st.floats(min_value=2.0, max_value=60.0),
                              min_size=1, max_size=4)


@given(wireless_distances, st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_exactly_once_over_the_radio(distances, seed):
    """Reliable messaging holds over the simulated radio too: for any
    in-range receiver placement, every message arrives exactly once."""
    from repro.env.world import World
    from repro.phys.devices import Device
    from repro.phys.mac import WirelessMedium

    sim = Simulator(seed=seed, trace=False)
    world = World(100, 100)
    medium = WirelessMedium(sim, world)
    sender = Device(sim, world, "src", (50, 50), medium=medium)
    inboxes = {}
    for i, distance in enumerate(distances):
        receiver = Device(sim, world, f"rx{i}",
                          (50 + distance * (0.5 if i % 2 else -0.5),
                           50 + distance * 0.4), medium=medium)
        inbox = []
        inboxes[receiver.name] = inbox
        receiver.reliable(40, on_message=lambda s, o, n, box=inbox:
                          box.append(o))
    tx = sender.reliable(40, max_retries=30)
    for i, name in enumerate(inboxes):
        tx.send(name, f"msg-{i}", 2500)
    sim.run(until=120.0)
    for i, (name, inbox) in enumerate(inboxes.items()):
        assert inbox == [f"msg-{i}"]
