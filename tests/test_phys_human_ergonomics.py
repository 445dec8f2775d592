"""Tests for the physical user, speech recognition and ergonomics."""

from __future__ import annotations

import pytest

from repro.kernel.errors import ConfigurationError
from repro.phys.ergonomics import (
    FormFactor,
    Mismatch,
    check_compatibility,
    tether_constraint,
)
from repro.phys.human import (
    PhysicalProfile,
    PhysicalUser,
    SpeechRecognizer,
    SpeechSignal,
)


def _profile(**kwargs) -> PhysicalProfile:
    defaults = dict(name="u")
    defaults.update(kwargs)
    return PhysicalProfile(**defaults)


# ---------------------------------------------------------------------------
# PhysicalProfile / PhysicalUser
# ---------------------------------------------------------------------------

def test_profile_validation():
    with pytest.raises(ConfigurationError):
        _profile(speech_clarity=1.5)
    with pytest.raises(ConfigurationError):
        _profile(vision_acuity=-0.1)
    with pytest.raises(ConfigurationError):
        _profile(reach_m=0.0)


def test_biometric_signature_stable_and_distinct():
    a = _profile(name="alice")
    assert a.biometric_signature() == _profile(name="alice").biometric_signature()
    assert a.biometric_signature() != _profile(name="bob").biometric_signature()


def test_speak_produces_signal(sim):
    user = PhysicalUser(sim, _profile(speech_level_db=60.0))
    signal = user.speak(["hello", "world"])
    assert isinstance(signal, SpeechSignal)
    assert signal.level_db == 60.0
    assert signal.words == ("hello", "world")


def test_speak_empty_rejected(sim):
    user = PhysicalUser(sim, _profile())
    with pytest.raises(ConfigurationError):
        user.speak([])


def test_can_hear(sim):
    user = PhysicalUser(sim, _profile(hearing_threshold_db=30.0))
    assert user.can_hear(40.0)
    assert not user.can_hear(20.0)


# ---------------------------------------------------------------------------
# SpeechRecognizer
# ---------------------------------------------------------------------------

def test_word_accuracy_monotone_in_snr(sim):
    recognizer = SpeechRecognizer(sim)
    values = [recognizer.word_accuracy(snr) for snr in (-10, 0, 12, 25, 40)]
    assert values == sorted(values)


def test_word_accuracy_capped_by_clarity(sim):
    recognizer = SpeechRecognizer(sim)
    assert recognizer.word_accuracy(60.0, clarity=0.8) <= 0.8


def test_recognize_high_snr_mostly_correct(sim):
    recognizer = SpeechRecognizer(sim)
    user = PhysicalUser(sim, _profile(speech_clarity=1.0))
    heard = recognizer.recognize(user.speak(["a"] * 200), snr_db=40.0)
    correct = sum(1 for w in heard if w is not None)
    assert correct >= 195
    assert recognizer.measured_wer <= 0.05


def test_recognize_low_snr_mostly_wrong(sim):
    recognizer = SpeechRecognizer(sim)
    user = PhysicalUser(sim, _profile())
    recognizer.recognize(user.speak(["a"] * 200), snr_db=-10.0)
    assert recognizer.measured_wer >= 0.95


def test_measured_wer_no_input(sim):
    assert SpeechRecognizer(sim).measured_wer == 0.0


def test_recognizer_bad_slope(sim):
    with pytest.raises(ConfigurationError):
        SpeechRecognizer(sim, slope_db=0.0)


# ---------------------------------------------------------------------------
# Ergonomics
# ---------------------------------------------------------------------------

def test_good_fit_is_compatible():
    form = FormFactor("kiosk", control_size_mm=20, glyph_size_mm=6,
                      weight_kg=0.1, portable=False)
    report = check_compatibility(form, _profile())
    assert report.compatible
    assert report.score == pytest.approx(1.0)
    assert report.mismatches == []


def test_tiny_controls_mismatch_low_dexterity():
    form = FormFactor("pda", control_size_mm=4.0)
    report = check_compatibility(form, _profile(dexterity=0.4))
    aspects = [m.aspect for m in report.mismatches]
    assert "controls" in aspects


def test_small_glyphs_vs_low_vision():
    form = FormFactor("pda", glyph_size_mm=1.5)
    report = check_compatibility(form, _profile(vision_acuity=0.4))
    assert any(m.aspect == "display" for m in report.mismatches)


def test_glyph_requirement_scales_with_distance():
    near = FormFactor("panel", glyph_size_mm=3.0, operating_distance_m=0.5)
    far = FormFactor("panel2", glyph_size_mm=3.0, operating_distance_m=3.0)
    profile = _profile(vision_acuity=1.0)
    assert check_compatibility(near, profile).compatible
    assert any(m.aspect == "display"
               for m in check_compatibility(far, profile).mismatches)


def test_heavy_portable_mismatch():
    form = FormFactor("brick", weight_kg=8.0, portable=True)
    report = check_compatibility(form, _profile(carry_limit_kg=2.0))
    assert any(m.aspect == "weight" for m in report.mismatches)


def test_heavy_fixture_no_weight_mismatch():
    form = FormFactor("projector", weight_kg=10.0, portable=False)
    report = check_compatibility(form, _profile(carry_limit_kg=2.0))
    assert not any(m.aspect == "weight" for m in report.mismatches)


def test_proximity_blocker():
    form = FormFactor("wall-panel", requires_proximity=True,
                      operating_distance_m=2.0)
    report = check_compatibility(form, _profile(reach_m=0.7))
    assert not report.compatible


def test_score_multiplicative():
    form = FormFactor("awful", control_size_mm=2.0, glyph_size_mm=0.5)
    report = check_compatibility(form, _profile(dexterity=0.5,
                                                vision_acuity=0.5))
    assert 0.0 <= report.score < 0.5
    assert len(report.mismatches) >= 2


def test_mismatch_severity_validation():
    with pytest.raises(ConfigurationError):
        Mismatch("x", "bad", 0.0)
    with pytest.raises(ConfigurationError):
        Mismatch("x", "bad", 1.5)


def test_tether_constraint():
    assert tether_constraint(FormFactor("laptop", requires_proximity=True,
                                        operating_distance_m=0.5)) is not None
    assert tether_constraint(FormFactor("badge")) is None


def test_form_factor_validation():
    with pytest.raises(ConfigurationError):
        FormFactor("x", control_size_mm=0.0)
    with pytest.raises(ConfigurationError):
        FormFactor("x", weight_kg=-1.0)
