"""Integration tests: full middleware paths across packages."""

from __future__ import annotations

from repro.core.instrument import LPCInstrument
from repro.core.layers import Layer
from repro.core.model import smart_projector_model
from repro.discovery.records import ServiceTemplate
from repro.env.mobility import LinearMobility
from repro.experiments.workloads import presentation_workflow, projector_room
from repro.services.content import SlideShow
from repro.services.errorsvc import DiagnosticsAgent, FaultInjector


def test_registration_survives_registry_outage_with_diagnostics():
    """Registry dies mid-run; diagnostics revives it; auto-renewal (with
    its re-register fallback) restores the services."""
    room = projector_room(seed=50, registration_lease_s=10.0)
    injector = FaultInjector(room.sim)
    DiagnosticsAgent(room.sim, injector, check_interval=1.0, repair_time=3.0)
    room.sim.run(until=5.0)
    assert len(room.registry.items()) == 2
    injector.kill_registry(room.registry)
    room.sim.run(until=60.0)
    # Services re-registered after the outage window.
    assert len(room.registry.items()) == 2


def test_forgetful_presenter_then_second_user_full_path():
    """User A presents and walks away; after the session lease expires,
    user B can acquire via the real RPC path."""
    room = projector_room(seed=51, session_lease_s=30.0)
    presentation_workflow(room)
    room.sim.run(until=10.0)
    assert room.smart.projection_sessions.holder == "laptop"

    from repro.discovery.client import ServiceDiscoveryClient
    from repro.phys.devices import Laptop
    from repro.services.projector import SmartProjectorClient

    second = Laptop(room.sim, room.world, "laptop2", (9, 9), room.medium)
    disc2 = ServiceDiscoveryClient(room.sim, second)
    disc2.discover()
    client2 = SmartProjectorClient(room.sim, second, disc2)
    outcomes = []

    def attempt():
        client2.discover_services(
            lambda ok, v: client2.acquire_projection(
                lambda ok2, v2: outcomes.append(ok2)) if ok else None)

    # First attempt while A still holds (t=12, lease runs to ~32.5);
    # retry after A's lease expired.
    room.sim.schedule(2.0, attempt)
    room.sim.schedule(35.0, attempt)
    room.sim.run(until=48.0)
    assert outcomes[0] is False
    assert outcomes[1] is True
    assert room.smart.projection_sessions.holder == "laptop2"


def test_walking_presenter_keeps_projecting():
    """The presenter walks across the room mid-talk; rate adaptation keeps
    the projection alive."""
    room = projector_room(seed=52, width=80.0, height=40.0,
                          laptop_pos=(5.0, 20.0), adapter_pos=(70.0, 20.0))
    presentation_workflow(room)
    SlideShow(room.sim, room.client.fb, dwell_s=4.0).start()
    room.sim.every(10.0, room.client.renew_sessions, start=10.0)
    walk = LinearMobility(room.sim, room.world, "laptop",
                          target=(60.0, 20.0), speed=2.0)
    room.sim.schedule(8.0, lambda: walk.start())
    room.sim.run(until=60.0)
    assert room.projector.frames_displayed >= 5
    assert walk.arrived


def test_instrumented_run_produces_layered_report():
    """A full run with the LPC instrument attached yields a readable,
    multi-layer report."""
    room = projector_room(seed=53, session_lease_s=6.0)
    model = smart_projector_model()
    LPCInstrument(room.sim, model)
    presentation_workflow(room)
    room.sim.run(until=40.0)  # session expires, issues emitted
    counts = model.concern_counts()
    assert counts[Layer.ABSTRACT] >= 1
    report = model.report()
    assert "Abstract" in report and "reclaimed" in report


def test_discovery_cache_refresh_after_service_restart():
    """Consumer sees EXPIRED then ADDED when the provider restarts."""
    room = projector_room(seed=54, registration_lease_s=5.0)
    kinds = []
    room.laptop_discovery.discover(
        lambda loc: room.laptop_discovery.subscribe(
            ServiceTemplate(service_type="projection"),
            lambda ev: kinds.append(ev.kind), lease_duration=120.0))
    room.sim.run(until=3.0)
    # Stop renewing: drop the adapter's registrations by deactivating them.
    for registration in room.adapter_discovery.registrations:
        registration.active = False
        if registration._renew_event is not None:
            registration._renew_event.cancel()
    room.sim.run(until=12.0)
    # Re-register.
    room.smart.register(room.adapter_discovery, 30.0)
    room.sim.run(until=20.0)
    assert "added" in kinds and "expired" in kinds
    assert kinds.index("expired") < len(kinds) - 1  # an added follows


def test_multi_device_smart_space_discovery():
    """Several providers register distinct service types; a consumer finds
    exactly what each template asks for."""
    room = projector_room(seed=55)
    from repro.discovery.client import ServiceDiscoveryClient
    from repro.discovery.records import ServiceItem, ServiceProxy, new_service_id
    from repro.phys.devices import Device

    extra_types = ["printer", "display", "coffee"]
    for i, service_type in enumerate(extra_types):
        dev = Device(room.sim, room.world, f"extra-{i}", (10 + i, 20),
                     medium=room.medium)
        disc = ServiceDiscoveryClient(room.sim, dev)
        item = ServiceItem(new_service_id(room.sim), service_type,
                           ServiceProxy(dev.name, 40 + i, service_type))
        disc.discover(lambda loc, d=disc, it=item: d.register(it, 60.0))
    room.sim.run(until=5.0)
    results = {}
    for service_type in extra_types + ["projection"]:
        room.laptop_discovery.find(
            ServiceTemplate(service_type=service_type),
            lambda items, t=service_type: results.update({t: len(items)}))
    room.sim.run(until=10.0)
    assert results == {"printer": 1, "display": 1, "coffee": 1,
                       "projection": 1}
