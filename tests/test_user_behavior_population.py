"""Tests for user agents, procedures and population sampling."""

from __future__ import annotations

import pytest

from repro.kernel.errors import ConfigurationError
from repro.resource.faculties import FacultyProfile, casual_user, researcher
from repro.user.behavior import Procedure, Step, UserAgent
from repro.user.physiology import sample_bodies, sample_physical_profile
from repro.user.population import (
    casual_population,
    lab_population,
    public_population,
)


def _procedure(steps=4, optional=()):
    return Procedure("p", [Step(f"s{i}", lambda: None, think_time=0.5,
                                optional_feeling=(f"s{i}" in optional))
                           for i in range(steps)])


def test_empty_procedure_rejected():
    with pytest.raises(ConfigurationError):
        Procedure("empty", [])


def test_burden_is_step_count():
    assert _procedure(steps=6).burden == 6


def test_researcher_completes_short_procedure(sim):
    agent = UserAgent(sim, "r", researcher())
    results = []
    agent.attempt(_procedure(steps=3), results.append)
    sim.run(until=600.0)
    assert results[0].completed
    assert not results[0].abandoned
    assert results[0].elapsed > 0


def test_actions_actually_execute(sim):
    hits = []
    procedure = Procedure("p", [Step("only", lambda: hits.append(1),
                                     think_time=0.1)])
    UserAgent(sim, "r", researcher()).attempt(procedure)
    sim.run(until=60.0)
    assert hits == [1]


def test_impossible_burden_abandoned(sim):
    """A 14-step procedure exceeds any casual user's capacity."""
    agent = UserAgent(sim, "c", casual_user(), intuitiveness=0.1,
                      consistent_metaphors=False)
    results = []
    agent.attempt(_procedure(steps=14), results.append)
    sim.run(until=3600.0)
    assert results[0].abandoned
    assert not results[0].completed
    assert any(r.category == "issue.intentional"
               for r in sim.tracer.issues())


def test_optional_steps_skipped_silently(sim):
    """Across several weak users, optional-feeling steps get skipped
    rather than fumbled."""
    skipped_total = 0
    for i in range(10):
        agent = UserAgent(sim, f"c{i}",
                          FacultyProfile(f"c{i}", gui_literacy=0.4,
                                         domain_knowledge=0.2,
                                         frustration_tolerance=1.0,
                                         learning_rate=0.3),
                          intuitiveness=0.2)
        agent.attempt(_procedure(steps=8, optional=("s3", "s7")))
    sim.run(until=3600.0)
    for record in sim.tracer.issues():
        if "skipped step" in record.message:
            skipped_total += 1
    assert skipped_total >= 1


def test_completion_rate_accessor(sim):
    agent = UserAgent(sim, "r", researcher())
    agent.attempt(_procedure(steps=2))
    agent.attempt(_procedure(steps=2))
    sim.run(until=600.0)
    assert agent.completion_rate == 1.0
    assert len(agent.results) == 2


def test_verify_step_triggers_recovery(sim):
    state = {"ok": False}

    def flaky_action():
        state["ok"] = True

    procedure = Procedure("p", [
        Step("do", flaky_action, think_time=0.1,
             verify=lambda: state["ok"])])
    agent = UserAgent(sim, "r", researcher())
    results = []
    agent.attempt(procedure, results.append)
    sim.run(until=600.0)
    assert results[0].completed


def test_mental_model_tracks_done_steps(sim):
    agent = UserAgent(sim, "r", researcher())
    agent.attempt(_procedure(steps=2))
    sim.run(until=600.0)
    assert agent.mental.belief("did.s0") is True
    assert agent.mental.belief("did.s1") is True


def test_agents_deterministic_per_seed():
    from repro.kernel.scheduler import Simulator

    def run_once(seed):
        sim = Simulator(seed=seed)
        agent = UserAgent(sim, "c", casual_user(), intuitiveness=0.3)
        results = []
        agent.attempt(_procedure(steps=9), results.append)
        sim.run(until=3600.0)
        r = results[0]
        return (r.completed, r.abandoned, r.fumbles, tuple(r.skipped_steps))

    assert run_once(3) == run_once(3)


# ---------------------------------------------------------------------------
# Populations / physiology
# ---------------------------------------------------------------------------

def test_population_sizes_and_names(sim):
    rng = sim.rng("pop")
    lab = lab_population(rng, 10)
    assert len(lab) == 10
    assert len({u.name for u in lab}) == 10


def test_lab_population_more_skilled_than_casual(sim):
    rng = sim.rng("pop")
    lab = lab_population(rng, 50)
    casual = casual_population(rng, 50)
    lab_skill = sum(u.technical_skill for u in lab) / 50
    casual_skill = sum(u.technical_skill for u in casual) / 50
    assert lab_skill > casual_skill + 0.3


def test_public_population_language_mix(sim):
    rng = sim.rng("pop")
    public = public_population(rng, 200, non_english_fraction=0.3)
    non_english = sum(1 for u in public if "en" not in u.languages)
    assert 30 < non_english < 90


def test_population_validation(sim):
    rng = sim.rng("pop")
    with pytest.raises(ConfigurationError):
        lab_population(rng, 0)
    with pytest.raises(ConfigurationError):
        public_population(rng, 10, non_english_fraction=2.0)


def test_sample_physical_profile_age_effects(sim):
    rng = sim.rng("bodies")
    young = [sample_physical_profile(rng, f"y{i}", "young") for i in range(40)]
    older = [sample_physical_profile(rng, f"o{i}", "older") for i in range(40)]
    mean_acuity = lambda group: sum(p.vision_acuity for p in group) / len(group)
    assert mean_acuity(young) > mean_acuity(older)
    mean_hearing = lambda group: sum(p.hearing_threshold_db
                                     for p in group) / len(group)
    assert mean_hearing(older) > mean_hearing(young)


def test_sample_bodies_bulk(sim):
    bodies = sample_bodies(sim.rng("b"), 5, prefix="visitor")
    assert [b.name for b in bodies] == [f"visitor-{i}" for i in range(1, 6)]
    with pytest.raises(ConfigurationError):
        sample_bodies(sim.rng("b"), 0)


def test_bad_age_group_rejected(sim):
    with pytest.raises(ConfigurationError):
        sample_physical_profile(sim.rng("b"), "x", "immortal")
