"""Tests for building an LPC model from a live deployment."""

from __future__ import annotations

from repro.core.layers import Layer
from repro.core.live import model_from_room
from repro.experiments.workloads import projector_room
from repro.resource.faculties import casual_user, researcher


def test_model_from_room_entities():
    room = projector_room(seed=60, register=False)
    model = model_from_room(room)
    names = {e.name for e in model.entities()}
    assert names == {"presenter", "laptop", "adapter", "registry"}
    presenter = model.entity("presenter")
    assert presenter.facet_at(Layer.RESOURCE).subject.name == "presenter"


def test_model_from_room_facets_backed_by_live_objects():
    room = projector_room(seed=61, register=False)
    model = model_from_room(room)
    adapter = model.entity("adapter")
    assert adapter.facet_at(Layer.ABSTRACT).subject is room.smart
    assert adapter.facet_at(Layer.RESOURCE).subject is room.adapter.platform


def test_model_from_room_checks_researcher_clean():
    room = projector_room(seed=62, register=False)
    model = model_from_room(room, presenter_faculties=researcher("r"))
    # The lab user passes resource and intentional checks; the only
    # tolerated mismatch is ergonomic weight.
    resource_violations = [v for v in model.violations()
                           if v.layer == Layer.RESOURCE]
    intentional_violations = [v for v in model.violations()
                              if v.layer == Layer.INTENTIONAL]
    assert resource_violations == []
    # researcher with presentation goal against research purpose: the
    # default goal is presentation, which the prototype over-burdens —
    # acceptable to the researcher only because they administer systems.
    assert len(intentional_violations) <= 1


def test_model_from_room_checks_casual_violations():
    room = projector_room(seed=63, register=False)
    model = model_from_room(room, presenter_faculties=casual_user("c"))
    layers_with_violations = {v.layer for v in model.violations()}
    assert Layer.RESOURCE in layers_with_violations
    assert Layer.INTENTIONAL in layers_with_violations


def test_model_from_room_radio_check_uses_geometry():
    near = projector_room(seed=64, register=False)
    model_near = model_from_room(near)
    env_near = [c for c in model_near.checks(Layer.ENVIRONMENT)]
    assert env_near[0].satisfied

    far = projector_room(seed=65, register=False, width=1000.0,
                         laptop_pos=(1.0, 10.0), adapter_pos=(900.0, 10.0),
                         hub_pos=(500.0, 10.0))
    model_far = model_from_room(far)
    env_far = [c for c in model_far.checks(Layer.ENVIRONMENT)]
    assert not env_far[0].satisfied


def test_model_from_room_report_renders():
    room = projector_room(seed=66, register=False)
    model = model_from_room(room, presenter_faculties=casual_user("c"))
    text = model.report()
    assert "deployment:adapter" in text
    assert "VIOLATION" in text
