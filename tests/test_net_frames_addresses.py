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


def test_frame_ids_monotone():
    a, b = Frame("a", "b"), Frame("a", "b")
    assert b.frame_id > a.frame_id


def test_frame_clone_fresh_id():
    frame = Frame("a", "b", "payload", 10, "mgmt", 5)
    clone = frame.clone()
    assert clone.frame_id != frame.frame_id
    assert (clone.src, clone.dst, clone.payload, clone.payload_bytes,
            clone.kind, clone.port) == ("a", "b", "payload", 10, "mgmt", 5)
