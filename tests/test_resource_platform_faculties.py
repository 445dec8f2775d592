"""Tests for platform descriptors, faculties and the matching engine."""

from __future__ import annotations

import pytest

from repro.kernel.errors import ConfigurationError
from repro.resource.faculties import (
    FacultyProfile,
    casual_user,
    international_visitor,
    researcher,
    train,
)
from repro.resource.matching import match, population_usability
from repro.resource.platform import (
    ExecutionSpec,
    MemorySpec,
    NetSpec,
    StorageSpec,
    UISpec,
    adapter_platform,
    laptop_platform,
    pda_platform,
    soc_platform,
)


# ---------------------------------------------------------------------------
# Platform specs
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ConfigurationError):
        MemorySpec(0)
    with pytest.raises(ConfigurationError):
        StorageSpec(-1)
    with pytest.raises(ConfigurationError):
        ExecutionSpec(0)
    with pytest.raises(ConfigurationError):
        UISpec(kind="holograms")
    with pytest.raises(ConfigurationError):
        UISpec(languages=())
    with pytest.raises(ConfigurationError):
        NetSpec(technologies=())


def test_presets_build():
    for factory in (laptop_platform, adapter_platform, pda_platform,
                    soc_platform):
        platform = factory()
        assert platform.memory.ram_mb > 0


def test_shares_technology():
    assert laptop_platform().shares_technology(adapter_platform())
    isolated = laptop_platform().with_net(technologies=("token-ring",))
    assert not isolated.shares_technology(adapter_platform())


def test_with_ui_replaces_immutably():
    base = adapter_platform()
    multilingual = base.with_ui(languages=("en", "fr"))
    assert multilingual.ui.languages == ("en", "fr")
    assert base.ui.languages == ("en",)


def test_soc_is_the_commercial_answer():
    soc = soc_platform()
    assert soc.net.auto_configuring
    assert not soc.net.requires_admin
    assert len(soc.ui.languages) > 1


# ---------------------------------------------------------------------------
# Faculties
# ---------------------------------------------------------------------------

def test_faculty_validation():
    with pytest.raises(ConfigurationError):
        FacultyProfile("x", languages=())
    with pytest.raises(ConfigurationError):
        FacultyProfile("x", gui_literacy=2.0)


def test_presets_capture_paper_populations():
    assert researcher().can_administer_systems
    assert not casual_user().can_administer_systems
    assert not international_visitor().speaks_any(("en",))


def test_speaks_any():
    visitor = international_visitor()
    assert visitor.speaks_any(("fr", "de"))
    assert not visitor.speaks_any(("ja",))


def test_training_improves_skill():
    user = casual_user()
    trained = train(user, "technical_skill", sessions=10)
    assert trained.technical_skill > user.technical_skill
    assert trained is not user  # immutable


def test_training_converges_below_one():
    user = researcher()
    trained = train(user, "gui_literacy", sessions=100)
    assert trained.gui_literacy <= 1.0


def test_training_faster_for_fast_learners():
    slow = FacultyProfile("slow", learning_rate=0.2, technical_skill=0.2)
    fast = FacultyProfile("fast", learning_rate=0.9, technical_skill=0.2)
    assert (train(fast, "technical_skill").technical_skill
            > train(slow, "technical_skill").technical_skill)


def test_untrainable_skill_rejected():
    with pytest.raises(ConfigurationError):
        train(researcher(), "frustration_tolerance")


# ---------------------------------------------------------------------------
# Matching ("must not be frustrated by")
# ---------------------------------------------------------------------------

def test_researcher_can_use_adapter():
    report = match(adapter_platform(), researcher())
    assert report.usable


def test_casual_user_blocked_by_adapter():
    report = match(adapter_platform(), casual_user())
    assert not report.usable
    aspects = {f.aspect for f in report.frustrations}
    assert "admin" in aspects


def test_language_mismatch_is_blocking():
    report = match(adapter_platform(), international_visitor())
    assert any(f.aspect == "language" and f.severity >= 0.9
               for f in report.frustrations)
    assert not report.usable


def test_multilingual_ui_fixes_language():
    platform = soc_platform()
    report = match(platform, international_visitor())
    assert not any(f.aspect == "language" for f in report.frustrations)


def test_soc_usable_by_everyone():
    for user in (researcher(), casual_user(), international_visitor()):
        assert match(soc_platform(), user).usable


def test_unabortable_execution_frustrates_impatient_users():
    pda = pda_platform()
    impatient = FacultyProfile("impatient", frustration_tolerance=0.1)
    patient = FacultyProfile("patient", frustration_tolerance=0.9)
    f_impatient = [f for f in match(pda, impatient).frustrations
                   if f.aspect == "execution" and "abort" in f.description]
    f_patient = [f for f in match(pda, patient).frustrations
                 if f.aspect == "execution" and "abort" in f.description]
    assert f_impatient[0].severity > f_patient[0].severity


def test_score_in_unit_interval():
    for platform in (adapter_platform(), pda_platform(), soc_platform()):
        for user in (researcher(), casual_user()):
            assert 0.0 <= match(platform, user).score <= 1.0


def test_worst_frustration():
    report = match(adapter_platform(), casual_user())
    worst = report.worst()
    assert worst is not None
    assert worst.severity == max(f.severity for f in report.frustrations)
    assert match(soc_platform(), researcher()).worst() is None


def test_population_usability():
    users = [researcher(f"r{i}") for i in range(5)]
    assert population_usability(adapter_platform(), users) == 1.0
    mixed = users + [casual_user(f"c{i}") for i in range(5)]
    assert population_usability(adapter_platform(), mixed) == 0.5
    with pytest.raises(ConfigurationError):
        population_usability(adapter_platform(), [])
