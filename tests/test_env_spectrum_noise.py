"""Tests for 2.4 GHz channel overlap and the acoustic field."""

from __future__ import annotations

import pytest

from repro.env.noise import (
    TYPICAL_LEVELS_DB,
    AcousticField,
    NoiseSource,
    combine_levels_db,
)
from repro.env.spectrum import (
    NON_OVERLAPPING,
    center_frequency_mhz,
    least_congested,
    overlap_factor,
    validate_channel,
)
from repro.env.world import World
from repro.kernel.errors import ConfigurationError


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------

def test_channel_frequencies():
    assert center_frequency_mhz(1) == pytest.approx(2412.0)
    assert center_frequency_mhz(6) == pytest.approx(2437.0)
    assert center_frequency_mhz(11) == pytest.approx(2462.0)


def test_invalid_channel_rejected():
    for channel in (0, 12, -3, 100):
        with pytest.raises(ConfigurationError):
            validate_channel(channel)


def test_cochannel_full_overlap():
    assert overlap_factor(6, 6) == 1.0


def test_overlap_symmetric_and_decreasing():
    values = [overlap_factor(1, 1 + sep) for sep in range(0, 6)]
    assert values == sorted(values, reverse=True)
    assert overlap_factor(3, 7) == overlap_factor(7, 3)


def test_non_overlapping_plan_is_orthogonal():
    for a in NON_OVERLAPPING:
        for b in NON_OVERLAPPING:
            if a != b:
                assert overlap_factor(a, b) == 0.0


def test_adjacent_channel_partial_overlap():
    assert 0.0 < overlap_factor(6, 7) < 1.0


def test_least_congested_avoids_load():
    # Heavy load on 1 and 6: channel 11 is the clean choice.
    assert least_congested({1: 10.0, 6: 10.0}) == 11


def test_least_congested_accounts_for_adjacency():
    # Load on channel 3 leaks into 1..7; 8..11 are clean, lowest wins... but
    # channels within 5 of 3 carry leakage, so the pick must be >= 8.
    assert least_congested({3: 100.0}) >= 8


def test_least_congested_empty_load_prefers_lowest():
    assert least_congested({}) == 1


# ---------------------------------------------------------------------------
# Acoustics
# ---------------------------------------------------------------------------

def test_combine_levels_doubles_to_plus_three_db():
    assert combine_levels_db([60.0, 60.0]) == pytest.approx(63.01, abs=0.01)


def test_combine_levels_dominated_by_loudest():
    assert combine_levels_db([80.0, 40.0]) == pytest.approx(80.0, abs=0.1)


def test_combine_levels_empty():
    assert combine_levels_db([]) == 0.0


def test_source_inverse_square_attenuation():
    src = NoiseSource("s", 70.0)
    assert src.level_at(1.0) == pytest.approx(70.0)
    assert src.level_at(2.0) == pytest.approx(70.0 - 6.02, abs=0.01)
    assert src.level_at(10.0) == pytest.approx(50.0)


def test_source_minimum_distance_clamp():
    src = NoiseSource("s", 70.0)
    assert src.level_at(0.0) == src.level_at(0.5)


def _field():
    world = World(50, 50)
    field = AcousticField(world, floor_db=40.0)
    world.place("mic", (25.0, 25.0))
    return world, field


def test_field_floor_only():
    _world, field = _field()
    assert field.level_at("mic") == pytest.approx(40.0)


def test_field_with_source():
    _world, field = _field()
    field.add_source(NoiseSource("fan", 70.0), (26.0, 25.0))
    level = field.level_at("mic")
    assert level > 65.0  # the 70 dB @1 m source dominates the 40 dB floor


def test_duplicate_source_rejected():
    _world, field = _field()
    field.add_source(NoiseSource("fan", 70.0), (0, 0))
    with pytest.raises(ConfigurationError):
        field.add_source(NoiseSource("fan", 60.0), (1, 1))


def test_remove_source_stops_radiating():
    _world, field = _field()
    field.add_source(NoiseSource("fan", 80.0), (25.5, 25.0))
    loud = field.level_at("mic")
    field.remove_source("fan")
    assert field.level_at("mic") < loud
    with pytest.raises(ConfigurationError):
        field.remove_source("fan")


def test_speech_snr():
    _world, field = _field()
    assert field.speech_snr_db(62.0, "mic") == pytest.approx(22.0)


def test_social_appropriateness_quiet_room():
    """In a quiet room, normal speech dominates — inappropriate."""
    _world, field = _field()
    assert not field.socially_appropriate("mic", speech_level_db=65.0)


def test_social_appropriateness_noisy_room():
    world = World(50, 50)
    field = AcousticField(world, floor_db=60.0)
    world.place("mic", (25.0, 25.0))
    assert field.socially_appropriate("mic", speech_level_db=65.0)


def test_typical_levels_ordering():
    assert TYPICAL_LEVELS_DB["quiet_office"] < TYPICAL_LEVELS_DB["subway"]
