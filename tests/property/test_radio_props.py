"""Property-based tests for radio physics and the spectrum model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.env.radio import (
    NOISE_FLOOR_DBM,
    RATES,
    PropagationModel,
    best_rate,
    dbm_to_mw,
    mw_to_dbm,
    ndtri,
    sinr_from_mw,
)
from repro.env.spectrum import CHANNELS, overlap_factor

channels = st.integers(min_value=CHANNELS.start, max_value=CHANNELS.stop - 1)
power = st.floats(min_value=-100.0, max_value=30.0, allow_nan=False)
distance = st.floats(min_value=0.1, max_value=5000.0, allow_nan=False)


@given(power)
@settings(max_examples=50, deadline=None)
def test_dbm_mw_roundtrip_everywhere(dbm):
    assert float(mw_to_dbm(dbm_to_mw(dbm))) == pytest_approx(dbm)


def pytest_approx(x, tolerance=1e-9):
    class _Approx:
        def __eq__(self, other):
            return abs(other - x) <= tolerance * max(1.0, abs(x))
    return _Approx()


@given(distance, distance)
@settings(max_examples=60, deadline=None)
def test_path_loss_monotone(d1, d2):
    model = PropagationModel(shadowing_sigma_db=0.0)
    l1 = model.path_loss_scalar_db(d1)
    l2 = model.path_loss_scalar_db(d2)
    if d1 < d2:
        assert l1 <= l2
    elif d1 > d2:
        assert l1 >= l2


@given(channels, channels)
@settings(max_examples=60, deadline=None)
def test_overlap_symmetric_bounded(a, b):
    f = overlap_factor(a, b)
    assert 0.0 <= f <= 1.0
    assert f == overlap_factor(b, a)
    if a == b:
        assert f == 1.0
    if abs(a - b) >= 5:
        assert f == 0.0


@given(st.floats(min_value=-20.0, max_value=50.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_fer_in_unit_interval_all_rates(sinr):
    for mode in RATES:
        fer = mode.fer(sinr, 1500)
        assert 0.0 <= fer <= 1.0


@given(st.floats(min_value=-20.0, max_value=50.0),
       st.integers(min_value=1, max_value=1500))
@settings(max_examples=60, deadline=None)
def test_best_rate_meets_target_or_is_base(sinr, size):
    mode = best_rate(sinr, size, fer_target=0.1)
    if mode is not RATES[0]:
        assert mode.fer(sinr, size) <= 0.1


@given(power, st.lists(power, max_size=6))
@settings(max_examples=60, deadline=None)
def test_sinr_bounded_by_snr(signal, interferers):
    interference_mw = 0.0
    for power_dbm in interferers:
        interference_mw += dbm_to_mw(power_dbm)
    with_interference = sinr_from_mw(dbm_to_mw(signal), interference_mw)
    without = sinr_from_mw(dbm_to_mw(signal), 0.0)
    assert with_interference <= without + 1e-9
    assert without == pytest_approx(signal - NOISE_FLOOR_DBM, 1e-9)


@given(st.floats(min_value=1.5, max_value=5.0),
       st.floats(min_value=0.0, max_value=10.0))
@settings(max_examples=30, deadline=None)
def test_range_ordering_holds_for_any_environment(exponent, sigma):
    model = PropagationModel(exponent=exponent, shadowing_sigma_db=sigma)
    ranges = [model.range_for_rate(mode) for mode in RATES]
    assert ranges == sorted(ranges, reverse=True)


@given(st.floats(min_value=0.1, max_value=2000.0),
       st.floats(min_value=-10.0, max_value=30.0))
@settings(max_examples=60, deadline=None)
def test_scalar_rx_power_matches_vector_path(distance, power):
    """The scalar received power must agree with the log-distance
    formula evaluated over a NumPy array."""
    model = PropagationModel(shadowing_sigma_db=0.0)
    scalar = model.received_power_dbm(power, distance)
    vector = float((np.asarray([power]) - model.reference_loss_db
                    - 10.0 * model.exponent
                    * np.log10(np.maximum(np.asarray([distance]), 0.1)))[0])
    assert abs(scalar - vector) < 1e-9


def shadowing_uniform(k):
    """The uniform :meth:`PropagationModel.shadowing_db` builds from its
    64 mixed bits ``k``."""
    return ((k >> 11) + 0.5) / float(1 << 53)


#: (k, ``scipy.special.ndtri(shadowing_uniform(k)).hex()``), recorded with
#: SciPy 1.17.1: both sides of e^-2 and of 1 - e^-2 (the central branch's
#: ends), both sides of the z = 8 switch between the tail approximations
#: (y = e^-32), and the two ends of the 64-bit range.  The top one's
#: 1 - 2^-54 rounds to 1.0, so its normal deviate is inf.
NDTRI_PINS = [
    (0x22A555477F039000, "-0x1.19fd30bc4de02p+0"),
    (0x22A555477F039800, "-0x1.19fd30bc4de02p+0"),
    (0xDD5AAAB880FC6000, "0x1.19fd30bc4de01p+0"),
    (0xDD5AAAB880FC6800, "0x1.19fd30bc4de05p+0"),
    (0x38800, "-0x1.e7bbec3af9b5ap+2"),
    (0x39000, "-0x1.e7a95f31848dfp+2"),
    (0, "-0x1.095b059d67c4dp+3"),
    ((1 << 64) - 1, "inf"),
]


def with_pinned_examples(test):
    for k, _ in NDTRI_PINS:
        test = example(k=k)(test)
    return test


@pytest.fixture(scope="module")
def scipy_special():
    return pytest.importorskip("scipy.special")


@with_pinned_examples
@given(k=st.integers(min_value=0, max_value=(1 << 64) - 1))
@settings(max_examples=500, deadline=None)
def test_ndtri_port_equals_scipy_on_shadowing_uniforms(scipy_special, k):
    """The in-tree port returns SciPy's double, bit for bit, on every
    uniform the shadowing hash can build."""
    uniform = shadowing_uniform(k)
    assert ndtri(uniform).hex() == float(scipy_special.ndtri(uniform)).hex()


@given(y=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=500, deadline=None)
def test_ndtri_port_equals_scipy_on_any_probability(scipy_special, y):
    """Beyond the shadowing grid: the deep tails down to subnormal
    probabilities, where the P2/Q2 approximation serves."""
    assert ndtri(y).hex() == float(scipy_special.ndtri(y)).hex()


@pytest.mark.parametrize("k, expected", NDTRI_PINS)
def test_ndtri_port_matches_recorded_scipy_values(k, expected):
    """SciPy-free: the port at the branch switches, against ``float.hex``
    values that SciPy's ndtri returned."""
    assert ndtri(shadowing_uniform(k)).hex() == expected


@pytest.mark.parametrize("seed, tx, rx, sigma, expected", [
    (2, "sta", "stb", 4.0, "-0x1.4b04a18978084p-2"),
    (7, "mac.st-111", "mac.st-102", 6.0, "0x1.399bb6908fd00p+2"),
    (42, "projector", "laptop", 8.0, "-0x1.196c5bd777087p+3"),
    # ndtri gives 6.07 sigma here: clamped to +6 sigma = 24 dB.
    (1, "a24017", "b36435", 4.0, "0x1.8000000000000p+4"),
])
def test_shadowing_matches_values_recorded_with_scipy(seed, tx, rx, sigma,
                                                      expected):
    """SciPy-free: frozen shadowing terms equal the ones the SciPy-backed
    model gave for the same seed and pair."""
    model = PropagationModel(shadowing_sigma_db=sigma,
                             rng=np.random.default_rng(seed))
    assert model.shadowing_db(tx, rx).hex() == expected
