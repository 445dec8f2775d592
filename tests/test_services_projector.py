"""Tests for the Smart Projector host and client (full middleware path)."""

from __future__ import annotations

import pytest

from repro.experiments.workloads import presentation_workflow, projector_room
from repro.kernel.errors import ServiceError


def test_full_happy_path_presents(sim):
    room = projector_room(seed=11)
    outcomes = []
    presentation_workflow(room, on_done=outcomes.append)
    # slide content so something flows once projecting
    from repro.services.content import SlideShow

    SlideShow(room.sim, room.client.fb, dwell_s=3.0).start()
    room.sim.every(8.0, room.client.renew_sessions, start=8.0)
    room.sim.run(until=30.0)
    assert outcomes == [True]
    assert room.projector.lamp_on
    assert room.projector.frames_displayed >= 2
    assert room.smart.projection_sessions.holder == "laptop"


def test_second_user_cannot_hijack(sim):
    room = projector_room(seed=12)
    presentation_workflow(room)
    room.sim.run(until=10.0)
    # A squatter calls stop with a fabricated token via raw RPC.
    from repro.phys.devices import Device
    from repro.services.base import RpcClient

    intruder = Device(room.sim, room.world, "intruder", (18, 12),
                      medium=room.medium)
    rpc = RpcClient(room.sim, intruder, room.smart.projection_item().proxy)
    results = []
    rpc.call("stop", {}, results.append, token="tok-1-12345")
    room.sim.run(until=15.0)
    assert results[0] is not None and results[0].ok is False
    assert room.smart.viewer is not None and room.smart.viewer.running


def test_acquire_busy_projector_fails(sim):
    room = projector_room(seed=13)
    presentation_workflow(room)
    room.sim.run(until=10.0)
    from repro.phys.devices import Device
    from repro.services.base import RpcClient

    second = Device(room.sim, room.world, "second", (18, 12),
                    medium=room.medium)
    rpc = RpcClient(room.sim, second, room.smart.projection_item().proxy)
    results = []
    rpc.call("acquire", {"owner": "second"}, results.append)
    room.sim.run(until=15.0)
    assert results[0].ok is False
    assert "in use" in results[0].error


def test_release_then_reacquire(sim):
    room = projector_room(seed=14)
    presentation_workflow(room)
    room.sim.run(until=10.0)
    done = []
    room.client.stop_projection(lambda ok, v: room.client.release_all(
        lambda ok2, v2: done.append(ok2)))
    room.sim.run(until=15.0)
    assert done == [True]
    assert room.smart.projection_sessions.available
    assert room.smart.control_sessions.available


def test_lease_expiry_recovers_forgotten_session(sim):
    room = projector_room(seed=15, session_lease_s=5.0)
    presentation_workflow(room)
    room.sim.run(until=10.0)
    # The presenter walks away without releasing; no renewals happen.
    room.sim.run(until=30.0)
    assert room.smart.projection_sessions.available
    # Eviction also stopped the projection stream.
    assert room.smart.viewer is None


def test_no_lease_variant_stays_stuck(sim):
    room = projector_room(seed=16, use_session_leases=False)
    presentation_workflow(room)
    room.sim.run(until=60.0)
    assert room.smart.projection_sessions.holder == "laptop"


def test_status_methods(sim):
    room = projector_room(seed=17)
    presentation_workflow(room)
    room.sim.run(until=10.0)
    from repro.phys.devices import Device
    from repro.services.base import RpcClient

    observer = Device(room.sim, room.world, "observer", (18, 12),
                      medium=room.medium)
    results = []
    rpc = RpcClient(room.sim, observer, room.smart.projection_item().proxy)
    rpc.call("status", {}, lambda r: results.append(r.value))
    room.sim.run(until=14.0)
    assert results[0]["holder"] == "laptop"
    assert results[0]["projecting"] is True
    assert results[0]["lamp_on"] is True


def test_services_registered_in_lookup(sim):
    room = projector_room(seed=18)
    room.sim.run(until=5.0)
    types = sorted(i.service_type for i in room.registry.items())
    assert types == ["projection", "projector-control"]


def test_client_steps_recorded(sim):
    room = projector_room(seed=19)
    presentation_workflow(room)
    room.sim.run(until=10.0)
    names = [name for _t, name in room.client.steps_performed]
    assert names[0] == "discover"
    assert "start_vnc_server" in names
    assert "start_projection" in names


def test_smart_projector_requires_connected_projector(sim, world, medium):
    from repro.phys.devices import AromaAdapter
    from repro.services.projector import SmartProjector

    adapter = AromaAdapter(sim, world, "bare-adapter", (5, 5), medium)
    with pytest.raises(ServiceError):
        SmartProjector(sim, adapter)


def test_start_requires_vnc_address(sim):
    room = projector_room(seed=20)
    results = []

    def after_acquire(ok, v):
        room.client._rpc("projection").call(
            "start", {"vnc_address": ""},
            room.client._unwrap(lambda ok2, v2: results.append((ok2, v2))),
            token=room.client.projection_token)

    def go():
        room.client.discover_services(
            lambda ok, v: room.client.acquire_projection(after_acquire))

    room.sim.schedule(2.0, go)
    room.sim.run(until=10.0)
    assert results and results[0][0] is False
