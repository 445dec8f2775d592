"""Tests for voice authentication, session wait-queues and atomic
two-session acquisition."""

from __future__ import annotations

import pytest

from repro.kernel.errors import ConfigurationError, ServiceError, SessionError
from repro.phys.human import PhysicalProfile, PhysicalUser
from repro.services.auth import VoiceprintAuthenticator
from repro.services.sessions import SessionManager


def _owner() -> PhysicalProfile:
    return PhysicalProfile("alice", speech_clarity=0.98)


def _impostor() -> PhysicalProfile:
    return PhysicalProfile("mallory", speech_clarity=0.98)


# ---------------------------------------------------------------------------
# VoiceprintAuthenticator
# ---------------------------------------------------------------------------

def test_enroll_and_verify_genuine_quiet(sim):
    auth = VoiceprintAuthenticator(sim)
    owner = _owner()
    auth.enroll(owner)
    assert auth.enrolled("alice")
    user = PhysicalUser(sim, owner)
    accepted = sum(
        auth.verify(user.speak(["open"]), "alice", snr_db=30.0,
                    speaker_profile=owner).accepted
        for _ in range(100))
    assert accepted >= 90
    assert auth.measured_frr <= 0.1


def test_genuine_rejected_in_noise(sim):
    auth = VoiceprintAuthenticator(sim)
    owner = _owner()
    auth.enroll(owner)
    user = PhysicalUser(sim, owner)
    for _ in range(100):
        auth.verify(user.speak(["open"]), "alice", snr_db=0.0,
                    speaker_profile=owner)
    assert auth.measured_frr >= 0.9
    # The lockouts surface as environment-layer issues.
    assert sim.tracer.select("issue.noise")


def test_impostor_far_flat_across_snr(sim):
    auth = VoiceprintAuthenticator(sim, far_target=0.02)
    owner, impostor = _owner(), _impostor()
    auth.enroll(owner)
    intruder = PhysicalUser(sim, impostor)
    for snr in (0.0, 30.0):
        for _ in range(300):
            auth.verify(intruder.speak(["open"]), "alice", snr,
                        speaker_profile=impostor)
    assert auth.measured_far == pytest.approx(0.02, abs=0.02)
    assert auth.impostor_attempts == 600


def test_false_accept_emits_session_issue(sim):
    auth = VoiceprintAuthenticator(sim, far_target=0.49)
    owner, impostor = _owner(), _impostor()
    auth.enroll(owner)
    intruder = PhysicalUser(sim, impostor)
    for _ in range(200):
        auth.verify(intruder.speak(["open"]), "alice", 30.0,
                    speaker_profile=impostor)
    assert auth.false_accepts > 0
    assert sim.tracer.select("issue.session")


def test_unenrolled_claim_rejected(sim):
    auth = VoiceprintAuthenticator(sim)
    user = PhysicalUser(sim, _owner())
    with pytest.raises(ServiceError):
        auth.verify(user.speak(["open"]), "nobody", 30.0)


def test_auth_parameter_validation(sim):
    with pytest.raises(ConfigurationError):
        VoiceprintAuthenticator(sim, far_target=0.0)
    with pytest.raises(ConfigurationError):
        VoiceprintAuthenticator(sim, slope_db=0.0)


def test_accept_probability_monotone(sim):
    auth = VoiceprintAuthenticator(sim)
    values = [auth.genuine_accept_probability(snr) for snr in
              (-10, 0, 10, 20, 30)]
    assert values == sorted(values)


# ---------------------------------------------------------------------------
# Session wait queue
# ---------------------------------------------------------------------------

def test_acquire_or_wait_immediate_when_free(sim):
    manager = SessionManager(sim, "proj")
    grants = []
    session = manager.acquire_or_wait("alice", grants.append)
    assert session is not None
    sim.run(until=1.0)
    assert len(grants) == 1 and grants[0].owner == "alice"


def test_waiters_granted_fifo_on_release(sim):
    manager = SessionManager(sim, "proj")
    first = manager.acquire("alice", 60.0)
    order = []
    manager.acquire_or_wait("bob", lambda s: order.append(("bob", sim.now)))
    manager.acquire_or_wait("carol", lambda s: order.append(("carol", sim.now)))
    assert manager.queue_length() == 2
    sim.schedule(5.0, manager.release, first.token)

    def bob_releases() -> None:
        manager.release(manager._current.token)

    sim.schedule(10.0, bob_releases)
    sim.run(until=15.0)
    assert [name for name, _t in order] == ["bob", "carol"]
    assert order[0][1] == pytest.approx(5.0)
    assert order[1][1] == pytest.approx(10.0)
    assert manager.wait_log == [pytest.approx(5.0), pytest.approx(10.0)]


def test_waiter_granted_on_lease_expiry(sim):
    manager = SessionManager(sim, "proj", sweep_interval=0.5)
    manager.acquire("forgetful", 5.0)
    grants = []
    manager.acquire_or_wait("patient", grants.append)
    sim.run(until=10.0)
    assert len(grants) == 1
    assert manager.holder == "patient"


def test_waiter_granted_on_force_release(sim):
    manager = SessionManager(sim, "proj", use_leases=False)
    manager.acquire("stuck", 60.0)
    grants = []
    manager.acquire_or_wait("next", grants.append)
    manager.force_release("admin")
    sim.run(until=1.0)
    assert len(grants) == 1


# ---------------------------------------------------------------------------
# Atomic two-session acquisition
# ---------------------------------------------------------------------------

def test_acquire_both_all_or_nothing():
    from repro.experiments.workloads import projector_room

    room = projector_room(seed=85, register=False)
    smart = room.smart
    # Someone holds control: atomic acquire must roll back projection.
    control = smart.control_sessions.acquire("other", 60.0)
    with pytest.raises(SessionError):
        smart._proj_acquire_both("laptop", owner="laptop")
    assert smart.projection_sessions.available  # rolled back
    smart.control_sessions.release(control.token)
    grant = smart._proj_acquire_both("laptop", owner="laptop")
    assert smart.projection_sessions.validate(grant["token"])
    assert smart.control_sessions.validate(grant["control_token"])


def test_acquire_both_over_rpc():
    from repro.experiments.workloads import projector_room
    from repro.phys.devices import Device
    from repro.services.base import RpcClient

    room = projector_room(seed=86)
    room.sim.run(until=3.0)
    caller = Device(room.sim, room.world, "caller", (18, 13),
                    medium=room.medium)
    rpc = RpcClient(room.sim, caller, room.smart.projection_item().proxy)
    results = []
    rpc.call("acquire_both", {"owner": "caller"}, results.append)
    room.sim.run(until=8.0)
    assert results[0].ok
    assert "control_token" in results[0].value
    assert room.smart.control_sessions.holder == "caller"
