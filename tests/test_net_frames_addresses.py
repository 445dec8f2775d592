"""Tests for frames and addressing."""

from __future__ import annotations

import pytest

from repro.kernel.errors import AddressError, ConfigurationError
from repro.net.addresses import BROADCAST, validate_address
from repro.net.frames import HEADER_BYTES, MTU_BYTES, Frame


# ---------------------------------------------------------------------------
# Addresses
# ---------------------------------------------------------------------------

def test_validate_accepts_normal_names():
    for name in ("laptop", "pda-1", "node.7", "a:b", "X_1"):
        assert validate_address(name) == name


def test_validate_accepts_broadcast():
    assert validate_address(BROADCAST) == BROADCAST


def test_validate_rejects_malformed():
    for bad in ("", " lead", "-dash-first", None, 42):
        with pytest.raises(AddressError):
            validate_address(bad)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

def test_frame_wire_size_includes_header():
    frame = Frame("a", "b", None, 100)
    assert frame.wire_bytes == 100 + HEADER_BYTES


def test_frame_airtime():
    frame = Frame("a", "b", None, 1000)
    assert frame.airtime(1e6) == pytest.approx(8.0 * frame.wire_bytes / 1e6)
    assert frame.airtime(1e6, preamble_s=1e-4) == pytest.approx(
        1e-4 + 8.0 * frame.wire_bytes / 1e6)


def test_frame_airtime_bad_rate():
    with pytest.raises(ConfigurationError):
        Frame("a", "b").airtime(0.0)


def test_frame_oversize_rejected():
    with pytest.raises(ConfigurationError):
        Frame("a", "b", None, MTU_BYTES + 1)


def test_frame_negative_size_rejected():
    with pytest.raises(ConfigurationError):
        Frame("a", "b", None, -1)


def test_frame_bad_kind_rejected():
    with pytest.raises(ConfigurationError):
        Frame("a", "b", None, 0, kind="weird")


def _sent_frame_ids(count):
    """Ids of ``count`` frames that a NIC and the stack above it build,
    alternately, in a fresh simulator."""
    from repro.env.world import World
    from repro.kernel.scheduler import Simulator
    from repro.net.stack import NetworkStack
    from repro.phys.mac import WirelessMedium
    from repro.phys.nic import WirelessNIC

    sim = Simulator(seed=1)
    world = World(50.0, 50.0)
    world.place("a", (1.0, 1.0))
    nic = WirelessNIC(sim, WirelessMedium(sim, world), "a")
    stack = NetworkStack(sim, nic)
    sent = []
    nic.mac.send = lambda frame: sent.append(frame.frame_id) or True
    for k in range(count):
        (nic.send if k % 2 else stack.send)(BROADCAST, payload_bytes=10)
    return sent


def test_frame_ids_monotone():
    """Senders number frames per simulator, from 1 in construction
    order, so a second simulator in the process starts again at 1."""
    assert _sent_frame_ids(4) == [1, 2, 3, 4]
    assert _sent_frame_ids(4) == [1, 2, 3, 4]
    assert Frame("a", "b").frame_id == 0
