"""Tests for the RPC framework, framebuffer and content generators."""

from __future__ import annotations

import pytest

from repro.kernel.errors import ConfigurationError, SessionError
from repro.phys.devices import Device
from repro.services.base import RpcClient, RpcService
from repro.services.content import Animation, MixedContent, SlideShow
from repro.services.framebuffer import BYTES_PER_PIXEL, Framebuffer


@pytest.fixture
def nodes(sim, world, medium):
    server_dev = Device(sim, world, "srv", (10, 10), medium=medium)
    client_dev = Device(sim, world, "cli", (12, 10), medium=medium)
    return server_dev, client_dev


# ---------------------------------------------------------------------------
# RPC
# ---------------------------------------------------------------------------

def test_rpc_roundtrip(sim, nodes):
    server_dev, client_dev = nodes
    service = RpcService(sim, server_dev, "calc", 70, "calc-protocol")
    service.expose("add", lambda src, a=0, b=0: a + b)
    client = RpcClient(sim, client_dev, service.service_item("calc").proxy)
    results = []
    client.call("add", {"a": 2, "b": 3},
                lambda r: results.append((r.ok, r.value)))
    sim.run(until=2.0)
    assert results == [(True, 5)]
    assert service.calls_served == 1


def test_rpc_unknown_method(sim, nodes):
    server_dev, client_dev = nodes
    service = RpcService(sim, server_dev, "calc", 70, "p")
    client = RpcClient(sim, client_dev, service.service_item("calc").proxy)
    results = []
    client.call("nope", {}, results.append)
    sim.run(until=2.0)
    assert results[0].ok is False
    assert "nope" in results[0].error
    assert service.calls_failed == 1


def test_rpc_service_error_propagates(sim, nodes):
    server_dev, client_dev = nodes

    def guarded(src, **kwargs):
        raise SessionError("not yours")

    service = RpcService(sim, server_dev, "s", 70, "p")
    service.expose("guarded", guarded)
    client = RpcClient(sim, client_dev, service.service_item("s").proxy)
    results = []
    client.call("guarded", {}, results.append)
    sim.run(until=2.0)
    assert results[0].ok is False and results[0].error == "not yours"


def test_rpc_token_passed_as_underscore_kwarg(sim, nodes):
    server_dev, client_dev = nodes
    seen = []
    service = RpcService(sim, server_dev, "s", 70, "p")
    service.expose("probe", lambda src, _token="": seen.append(_token) or True)
    client = RpcClient(sim, client_dev, service.service_item("s").proxy)
    client.call("probe", {}, None, token="secret-token")
    sim.run(until=2.0)
    assert seen == ["secret-token"]


def test_rpc_timeout_delivers_none(sim, nodes):
    _server_dev, client_dev = nodes
    from repro.discovery.records import ServiceProxy

    client = RpcClient(sim, client_dev, ServiceProxy("nobody-home", 77, "p"),
                       timeout=0.5)
    results = []
    client.call("anything", {}, results.append)
    sim.run(until=5.0)
    assert results == [None]
    assert client.timeouts == 1


def test_rpc_double_expose_rejected(sim, nodes):
    server_dev, _ = nodes
    service = RpcService(sim, server_dev, "s", 70, "p")
    service.expose("m", lambda src: None)
    with pytest.raises(ConfigurationError):
        service.expose("m", lambda src: None)


def test_service_item_carries_proxy(sim, nodes):
    server_dev, _ = nodes
    service = RpcService(sim, server_dev, "s", 70, "proto", code_bytes=999)
    item = service.service_item("stype", room="A")
    assert item.proxy.provider == "srv"
    assert item.proxy.port == 70
    assert item.proxy.code_bytes == 999
    assert item.attributes["room"] == "A"


# ---------------------------------------------------------------------------
# Framebuffer
# ---------------------------------------------------------------------------

def test_framebuffer_geometry():
    fb = Framebuffer(1024, 768, tile=64)
    assert fb.cols == 16 and fb.rows == 12
    assert fb.total_pixels == 1024 * 768


def test_touch_rect_marks_covered_tiles():
    fb = Framebuffer(256, 256, tile=64)
    touched = fb.touch_rect(0, 0, 65, 65)  # spills into 2x2 tiles
    assert touched == 4
    assert len(fb.dirty_since(0)) == 4


def test_touch_all_marks_everything():
    fb = Framebuffer(256, 256, tile=64)
    fb.touch_all()
    assert len(fb.dirty_since(0)) == 16


def test_versions_monotone_and_dirty_since():
    fb = Framebuffer(256, 256, tile=64)
    fb.touch_rect(0, 0, 10, 10)
    v1 = fb.version
    assert fb.dirty_since(v1) == []
    fb.touch_rect(128, 128, 10, 10)
    updates = fb.dirty_since(v1)
    assert len(updates) == 1
    assert (updates[0].col, updates[0].row) == (2, 2)


def test_dirty_cost_matches_update_list():
    fb = Framebuffer(1024, 768, tile=64)
    fb.touch_rect(0, 0, 200, 100, compression_ratio=0.5)
    tiles, cost, pixels = fb.dirty_cost(0)
    updates = fb.dirty_since(0)
    assert tiles == len(updates)
    assert cost == sum(u.payload_bytes for u in updates)
    assert pixels == sum(u.pixels for u in updates)


def test_compression_ratio_scales_cost():
    fb = Framebuffer(256, 256, tile=64)
    fb.touch_all(compression_ratio=0.1)
    _t, cheap, _p = fb.dirty_cost(0)
    fb.touch_all(compression_ratio=1.0)
    _t, expensive, _p = fb.dirty_cost(0)
    assert expensive == pytest.approx(
        256 * 256 * BYTES_PER_PIXEL, rel=0.01)
    assert cheap < expensive / 5


def test_edge_tiles_partial_pixels():
    fb = Framebuffer(100, 100, tile=64)  # edge tiles are 36 wide/high
    fb.touch_all()
    _tiles, _cost, pixels = fb.dirty_cost(0)
    assert pixels == 100 * 100


def test_invalid_rect_rejected():
    fb = Framebuffer()
    with pytest.raises(ConfigurationError):
        fb.touch_rect(0, 0, 0, 10)
    with pytest.raises(ConfigurationError):
        fb.touch_rect(0, 0, 10, 10, compression_ratio=0.0)


# ---------------------------------------------------------------------------
# Content generators
# ---------------------------------------------------------------------------

def test_slideshow_flips_at_dwell_rate(sim):
    fb = Framebuffer(256, 256)
    show = SlideShow(sim, fb, dwell_s=10.0).start()
    sim.run(until=60.0)
    assert 3 <= show.updates_generated <= 10


def test_animation_rate(sim):
    fb = Framebuffer()
    animation = Animation(sim, fb, fps=10.0).start()
    sim.run(until=5.0)
    assert animation.updates_generated == pytest.approx(50, abs=2)


def test_mixed_content_cycles(sim):
    fb = Framebuffer()
    mixed = MixedContent(sim, fb, dwell_s=10.0, animation_duty=0.5,
                         fps=10.0).start()
    sim.run(until=30.0)
    assert mixed.slides.updates_generated >= 2
    assert mixed.animation.updates_generated >= 10
    mixed.stop()
    count = mixed.updates
    sim.run(until=60.0)
    assert mixed.updates == count  # fully stopped


def test_generator_stop(sim):
    fb = Framebuffer()
    animation = Animation(sim, fb, fps=10.0).start()
    sim.run(until=1.0)
    animation.stop()
    count = animation.updates_generated
    sim.run(until=5.0)
    assert animation.updates_generated == count


def test_content_validation(sim):
    fb = Framebuffer()
    with pytest.raises(ConfigurationError):
        SlideShow(sim, fb, dwell_s=0.0)
    with pytest.raises(ConfigurationError):
        Animation(sim, fb, fps=0.0)
    with pytest.raises(ConfigurationError):
        MixedContent(sim, fb, animation_duty=1.5)


def test_rpc_handler_crash_isolated(sim, nodes):
    """A buggy handler returns an internal error instead of killing the
    simulation, and the defect surfaces as an abstract-layer issue."""
    server_dev, client_dev = nodes

    def buggy(src, **kwargs):
        raise ValueError("whoops")

    service = RpcService(sim, server_dev, "s", 70, "p")
    service.expose("buggy", buggy)
    client = RpcClient(sim, client_dev, service.service_item("s").proxy)
    results = []
    client.call("buggy", {}, results.append)
    sim.run(until=2.0)
    assert results[0].ok is False
    assert "internal error" in results[0].error
    assert sim.tracer.select("issue.application")
