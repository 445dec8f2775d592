"""Tests for radio propagation, rates and SINR."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.env.radio import (
    NOISE_FLOOR_DBM,
    RATE_BY_NAME,
    RATES,
    PropagationModel,
    best_rate,
    dbm_to_mw,
    mw_to_dbm,
    sinr_from_mw,
)
from repro.kernel.errors import ConfigurationError


def test_dbm_mw_roundtrip():
    for dbm in (-90.0, -30.0, 0.0, 15.0):
        assert mw_to_dbm(dbm_to_mw(dbm)) == pytest.approx(dbm)


def test_dbm_to_mw_known_values():
    assert dbm_to_mw(0.0) == pytest.approx(1.0)
    assert dbm_to_mw(10.0) == pytest.approx(10.0)
    assert dbm_to_mw(-30.0) == pytest.approx(1e-3)


def test_scalar_conversions_return_native_float():
    """Regression: scalar in must mean native ``float`` out, not a NumPy
    scalar that leaks array semantics into downstream arithmetic."""
    assert type(dbm_to_mw(0.0)) is float
    assert type(dbm_to_mw(-30)) is float
    assert type(mw_to_dbm(1.0)) is float
    assert type(mw_to_dbm(0)) is float  # clipped at the -200 dBm floor
    assert type(NOISE_FLOOR_DBM) is float


def test_mw_to_dbm_clips_at_floor():
    assert mw_to_dbm(0.0) == pytest.approx(-200.0)
    assert mw_to_dbm(-1.0) == pytest.approx(-200.0)


def test_noise_floor_plausible():
    # 22 MHz channel with a 6 dB NF lands in the mid -90s dBm.
    assert -96.0 < NOISE_FLOOR_DBM < -93.0


def test_path_loss_monotone_in_distance():
    model = PropagationModel(shadowing_sigma_db=0.0)
    losses = [model.path_loss_scalar_db(d) for d in (1.0, 10.0, 100.0)]
    assert losses[0] < losses[1] < losses[2]


def test_path_loss_reference_value():
    model = PropagationModel(exponent=3.0, reference_loss_db=40.0,
                             shadowing_sigma_db=0.0)
    assert model.path_loss_scalar_db(1.0) == pytest.approx(40.0)
    assert model.path_loss_scalar_db(10.0) == pytest.approx(70.0)


def test_free_space_exponent_slope():
    model = PropagationModel(exponent=2.0, shadowing_sigma_db=0.0)
    l10 = model.path_loss_scalar_db(10.0)
    l100 = model.path_loss_scalar_db(100.0)
    assert l100 - l10 == pytest.approx(20.0)


def test_implausible_exponent_rejected():
    with pytest.raises(ConfigurationError):
        PropagationModel(exponent=0.5)
    with pytest.raises(ConfigurationError):
        PropagationModel(shadowing_sigma_db=-1.0)


@pytest.mark.parametrize("kwargs", [
    {"exponent": math.nan},
    {"reference_loss_db": math.nan},
    {"reference_loss_db": math.inf},
    {"shadowing_sigma_db": math.nan},
    {"shadowing_sigma_db": math.inf},
])
def test_non_finite_propagation_parameters_rejected(kwargs):
    """A NaN exponent or reference loss made the culling radius 0.1 m,
    and an infinite sigma made every shadowing term infinite."""
    with pytest.raises(ConfigurationError):
        PropagationModel(**kwargs)


def test_shadowing_frozen_and_symmetric():
    model = PropagationModel(shadowing_sigma_db=6.0,
                             rng=np.random.default_rng(3))
    ab = model.shadowing_db("a", "b")
    assert model.shadowing_db("a", "b") == ab
    assert model.shadowing_db("b", "a") == ab
    assert model.shadowing_db("a", "c") != ab  # overwhelmingly likely


def test_zero_sigma_shadowing_is_zero():
    model = PropagationModel(shadowing_sigma_db=0.0)
    assert model.shadowing_db("a", "b") == 0.0


def test_received_power_includes_shadowing():
    model = PropagationModel(shadowing_sigma_db=5.0,
                             rng=np.random.default_rng(1))
    plain = model.received_power_dbm(15.0, 10.0)
    shadowed = model.received_power_dbm(15.0, 10.0, "a", "b")
    assert shadowed == pytest.approx(plain - model.shadowing_db("a", "b"))


# ---------------------------------------------------------------------------
# Rates and FER
# ---------------------------------------------------------------------------

def test_rates_ordered_and_named():
    speeds = [r.bits_per_second for r in RATES]
    assert speeds == sorted(speeds)
    assert set(RATE_BY_NAME) == {"1Mbps", "2Mbps", "5.5Mbps", "11Mbps"}


def test_fer_decreases_with_sinr():
    mode = RATE_BY_NAME["11Mbps"]
    fers = [mode.fer(s, 1500) for s in (0.0, 5.0, 10.0, 20.0)]
    assert fers == sorted(fers, reverse=True)


def test_fer_increases_with_frame_size():
    mode = RATE_BY_NAME["2Mbps"]
    assert mode.fer(3.0, 1500) >= mode.fer(3.0, 100)


def test_fer_bounds():
    mode = RATE_BY_NAME["1Mbps"]
    assert mode.fer(40.0, 1500) == pytest.approx(0.0, abs=1e-9)
    assert mode.fer(-20.0, 1500) == pytest.approx(1.0, abs=1e-6)


def test_slower_rates_more_robust():
    """At marginal SINR the 1 Mb/s DSSS mode must outperform 11 Mb/s CCK."""
    sinr = 5.0
    assert RATE_BY_NAME["1Mbps"].fer(sinr, 1500) < \
        RATE_BY_NAME["11Mbps"].fer(sinr, 1500)


def test_best_rate_high_sinr_picks_fastest():
    assert best_rate(30.0).name == "11Mbps"


def test_best_rate_low_sinr_falls_back_to_base():
    assert best_rate(-10.0).name == "1Mbps"


def test_best_rate_monotone_in_sinr():
    picks = [best_rate(s).bits_per_second for s in np.linspace(-5, 30, 36)]
    assert picks == sorted(picks)


def test_range_for_rate_ordering():
    model = PropagationModel(exponent=3.0, shadowing_sigma_db=0.0)
    ranges = [model.range_for_rate(mode) for mode in RATES]
    # Slower modes reach farther.
    assert ranges == sorted(ranges, reverse=True)
    assert ranges[0] > 100.0  # 1 Mb/s reaches beyond 100 m indoors


def test_range_for_rate_zero_when_impossible():
    model = PropagationModel(exponent=3.0, shadowing_sigma_db=0.0)
    assert model.range_for_rate(RATES[3], tx_power_dbm=-100.0) == 0.0


# ---------------------------------------------------------------------------
# SINR
# ---------------------------------------------------------------------------

def _interference_mw(powers_dbm, overlaps):
    """The medium's overlap-weighted interference sum, in milliwatts."""
    total = 0.0
    for power, factor in zip(powers_dbm, overlaps):
        total += dbm_to_mw(power) * factor
    return total


def test_sinr_without_interference_is_snr():
    assert sinr_from_mw(dbm_to_mw(-60.0), 0.0) == \
        pytest.approx(-60.0 - NOISE_FLOOR_DBM)


def test_sinr_with_equal_interferer_near_zero():
    # One co-channel interferer at the same power: SINR ≈ 0 dB (noise makes
    # it slightly negative).
    value = sinr_from_mw(dbm_to_mw(-60.0), dbm_to_mw(-60.0))
    assert -0.5 < value < 0.0


def test_sinr_overlap_scales_interference():
    signal = dbm_to_mw(-60.0)
    full = sinr_from_mw(signal, _interference_mw([-60.0], [1.0]))
    half = sinr_from_mw(signal, _interference_mw([-60.0], [0.5]))
    none = sinr_from_mw(signal, _interference_mw([-60.0], [0.0]))
    assert full < half < none
    assert none == pytest.approx(sinr_from_mw(signal, 0.0))


def test_sinr_multiple_interferers_sum():
    signal = dbm_to_mw(-60.0)
    one = sinr_from_mw(signal, _interference_mw([-70.0], [1.0]))
    two = sinr_from_mw(signal, _interference_mw([-70.0, -70.0], [1.0, 1.0]))
    assert two < one
