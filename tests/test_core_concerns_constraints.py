"""Tests for concern classification and the constraint relations."""

from __future__ import annotations

import pytest

from repro.core.concerns import ConcernClassifier
from repro.core.constraints import (
    check_abstract_consistency,
    check_acoustic_environment,
    check_intentional_harmony,
    check_physical_compatibility,
    check_radio_environment,
    check_resource_match,
)
from repro.core.layers import Column, Layer
from repro.env.noise import AcousticField
from repro.env.radio import PropagationModel
from repro.env.world import World
from repro.kernel.errors import ConstraintViolation, ModelError
from repro.kernel.trace import TraceRecord
from repro.phys.devices import laptop_form
from repro.phys.human import PhysicalProfile
from repro.resource.faculties import casual_user, researcher
from repro.resource.platform import adapter_platform, soc_platform
from repro.user.goals import (
    presentation_goal,
    research_goal,
    research_prototype_purpose,
)
from repro.user.mental import MentalModel


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------

def test_topic_classification():
    classifier = ConcernClassifier()
    assert classifier.classify("session", "anything") == Layer.ABSTRACT
    assert classifier.classify("radio", "anything") == Layer.ENVIRONMENT
    assert classifier.classify("power", "anything") == Layer.PHYSICAL
    assert classifier.classify("language", "anything") == Layer.RESOURCE
    assert classifier.classify("goal", "anything") == Layer.INTENTIONAL


def test_keyword_fallback():
    classifier = ConcernClassifier()
    assert classifier.classify("", "heavy 2.4 GHz interference observed") \
        == Layer.ENVIRONMENT
    assert classifier.classify("", "user must stay in proximity") \
        == Layer.PHYSICAL
    assert classifier.classify("", "assumes the English language") \
        == Layer.RESOURCE


def test_unclassifiable_raises_without_default():
    classifier = ConcernClassifier()
    with pytest.raises(ModelError):
        classifier.classify("xyzzy", "qwerty")


def test_default_layer_used_when_given():
    classifier = ConcernClassifier(default=Layer.ABSTRACT)
    assert classifier.classify("xyzzy", "qwerty") == Layer.ABSTRACT


def test_extra_topics_extend_map():
    classifier = ConcernClassifier(extra_topics={"weather": Layer.ENVIRONMENT})
    assert classifier.classify("weather", "") == Layer.ENVIRONMENT


def test_from_trace_builds_concern():
    classifier = ConcernClassifier()
    record = TraceRecord(3.0, "issue.session", "projector",
                         "bob denied: alice holds the session")
    concern = classifier.from_trace(record, user_sources=["alice"])
    assert concern.layer == Layer.ABSTRACT
    assert concern.column == Column.DEVICE  # source is 'projector'
    assert concern.time == 3.0
    user_record = TraceRecord(4.0, "issue.mental", "alice", "surprised")
    assert classifier.from_trace(user_record, ["alice"]).column == Column.USER


def test_from_trace_rejects_non_issue():
    classifier = ConcernClassifier()
    with pytest.raises(ModelError):
        classifier.from_trace(TraceRecord(0, "mac.tx", "x", "y"))


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------

def test_radio_environment_close_link_ok():
    result = check_radio_environment(
        PropagationModel(shadowing_sigma_db=0.0), distance_m=10.0,
        required_rate_bps=2e6)
    assert result.satisfied
    assert result.layer == Layer.ENVIRONMENT


def test_radio_environment_far_link_fails():
    result = check_radio_environment(
        PropagationModel(shadowing_sigma_db=0.0), distance_m=400.0,
        required_rate_bps=2e6)
    assert not result.satisfied
    with pytest.raises(ConstraintViolation):
        result.require()


def test_acoustic_environment_voice_needs_quiet():
    world = World(10, 10)
    quiet = AcousticField(world, floor_db=35.0)
    world.place("spot", (5, 5))
    profile = PhysicalProfile("u", speech_level_db=62.0)
    ok = check_acoustic_environment(quiet, "spot", profile, needs_voice=True)
    # Quiet room: great SNR but socially inappropriate -> unsatisfied.
    assert not ok.satisfied
    no_voice = check_acoustic_environment(quiet, "spot", profile,
                                          needs_voice=False)
    assert no_voice.satisfied


def test_acoustic_environment_noisy_room_fails_snr():
    world = World(10, 10)
    loud = AcousticField(world, floor_db=75.0)
    world.place("spot", (5, 5))
    profile = PhysicalProfile("u", speech_level_db=62.0)
    result = check_acoustic_environment(loud, "spot", profile,
                                        needs_voice=True)
    assert not result.satisfied


def test_physical_compatibility_constraint():
    good = check_physical_compatibility(laptop_form(), PhysicalProfile("fit"))
    assert good.layer == Layer.PHYSICAL
    weak = check_physical_compatibility(
        laptop_form(), PhysicalProfile("frail", carry_limit_kg=1.0))
    assert weak.score < good.score


def test_resource_match_constraint():
    blocked = check_resource_match(adapter_platform(), casual_user())
    assert not blocked.satisfied
    fine = check_resource_match(soc_platform(), casual_user())
    assert fine.satisfied
    assert fine.layer == Layer.RESOURCE


def test_abstract_consistency_constraint(sim):
    mental = MentalModel(sim, "alice", researcher())
    mental.believe("vnc_running", True)
    mental.believe("session_held", True)
    state = {"vnc_running": True, "session_held": True}
    result = check_abstract_consistency(mental, state)
    assert result.satisfied and result.score == 1.0
    state["session_held"] = False  # lease expired behind her back
    result2 = check_abstract_consistency(mental, state)
    assert not result2.satisfied


def test_intentional_harmony_constraint():
    good = check_intentional_harmony(research_prototype_purpose(),
                                     research_goal(), researcher())
    assert good.satisfied
    bad = check_intentional_harmony(research_prototype_purpose(),
                                    presentation_goal(), casual_user())
    assert not bad.satisfied
    assert bad.layer == Layer.INTENTIONAL


def test_constraint_scores_unit_interval(sim):
    mental = MentalModel(sim, "x", casual_user())
    mental.believe("a", 1)
    results = [
        check_radio_environment(PropagationModel(shadowing_sigma_db=0.0), 50.0),
        check_physical_compatibility(laptop_form(), PhysicalProfile("p")),
        check_resource_match(adapter_platform(), researcher()),
        check_abstract_consistency(mental, {"a": 1, "b": 2}),
        check_intentional_harmony(research_prototype_purpose(),
                                  presentation_goal(), casual_user()),
    ]
    for result in results:
        assert 0.0 <= result.score <= 1.0
        assert result.relation  # every result carries its relation text
