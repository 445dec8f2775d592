"""Integration: the abstract layer's consistency relation against the
*live* Smart Projector state.

"The key issue ... is maintaining consistency between the user's
reasoning and expectations and the logic and state of the application."
These tests drive the real system out from under a user's mental model
and watch the consistency metric (and the surprises) respond.
"""

from __future__ import annotations

import pytest

from repro.core.constraints import check_abstract_consistency
from repro.experiments.workloads import presentation_workflow, projector_room
from repro.resource.faculties import researcher
from repro.user.mental import MentalModel


def _believing_user(room, name="presenter"):
    """A mental model matching reality right after the happy-path setup."""
    mental = MentalModel(room.sim, name, researcher(name))
    for key, value in room.smart.application_state().items():
        mental.believe(key, value)
    return mental


def test_consistent_right_after_setup():
    room = projector_room(seed=400)
    presentation_workflow(room)
    room.sim.run(until=10.0)
    mental = _believing_user(room)
    result = check_abstract_consistency(mental,
                                        room.smart.application_state())
    assert result.satisfied and result.score == 1.0


def test_lease_expiry_desynchronises_the_model():
    """The session expires behind the presenter's back: their model is now
    wrong on every session-derived key."""
    room = projector_room(seed=401, session_lease_s=8.0)
    presentation_workflow(room)
    room.sim.run(until=6.0)
    mental = _believing_user(room)
    room.sim.run(until=40.0)  # leases gone, viewer stopped
    state = room.smart.application_state()
    result = check_abstract_consistency(mental, state)
    assert not result.satisfied
    assert result.score <= 0.6
    # The user now observes the status display: surprises are recorded
    # and the model corrects itself.
    for key, value in state.items():
        mental.observe(key, value)
    assert len(mental.surprises) >= 2
    assert check_abstract_consistency(
        mental, room.smart.application_state()).satisfied


def test_remote_control_change_surprises_the_presenter():
    """Someone switches the projector input from the panel: the presenter's
    'projecting' belief is falsified even though their session is fine."""
    room = projector_room(seed=402)
    presentation_workflow(room)
    room.sim.run(until=10.0)
    mental = _believing_user(room)
    # A janitor flips the appliance to the VGA input at the device itself.
    room.projector.select_input("vga-1")
    state = room.smart.application_state()
    # One of five keys is now wrong: consistency dips below perfect, and a
    # stricter reviewer threshold flags it.
    result = check_abstract_consistency(mental, state, threshold=0.9)
    assert not result.satisfied
    assert result.score == pytest.approx(0.8)
    assert mental.belief("input") == "video-in"  # the stale belief
    mental.observe("input", state["input"])
    assert mental.surprises[-1].key == "input"


def test_issue_stream_carries_the_surprise():
    room = projector_room(seed=403, session_lease_s=8.0)
    presentation_workflow(room)
    room.sim.run(until=6.0)
    mental = _believing_user(room)
    room.sim.run(until=40.0)
    for key, value in room.smart.application_state().items():
        mental.observe(key, value)
    issues = room.sim.tracer.select("issue.mental")
    assert any("expected" in record.message for record in issues)
