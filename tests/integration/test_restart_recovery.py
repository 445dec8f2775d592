"""Integration: recovery paths after a registry cold restart.

A restarted lookup service has lost all state; providers discover their
leases are gone at the next renewal and must re-register from scratch —
the middleware's self-healing loop, end to end.
"""

from __future__ import annotations

from repro.discovery.leases import LeaseTable
from repro.discovery.records import ServiceTemplate
from repro.experiments.workloads import projector_room


def _cold_restart(registry) -> None:
    """Wipe the registrar's state as a process restart would."""
    registry._items.clear()
    registry._lease_to_service.clear()
    registry._service_to_lease.clear()
    # Replace the lease table wholesale (old one forgotten with the heap).
    registry.leases.stop()
    registry.leases = LeaseTable(registry.sim,
                                 f"{registry.registry_id}.registrations",
                                 max_duration=300.0,
                                 on_expired=registry._registration_expired,
                                 sweep_interval=1.0)


def test_providers_reregister_after_registry_restart():
    room = projector_room(seed=210, registration_lease_s=10.0)
    room.sim.run(until=3.0)
    assert len(room.registry.items()) == 2

    _cold_restart(room.registry)
    assert room.registry.items() == []

    # The adapter's next renewal gets "lease unknown" and re-registers.
    room.sim.run(until=30.0)
    assert len(room.registry.items()) == 2
    # The re-registration path emitted the lease-lost issue.
    assert any("re-registering" in record.message
               for record in room.sim.tracer.select("issue.discovery"))


def test_consumers_find_services_again_after_restart():
    room = projector_room(seed=211, registration_lease_s=10.0)
    room.sim.run(until=3.0)
    _cold_restart(room.registry)

    results = []
    room.sim.schedule(25.0, lambda: room.laptop_discovery.find(
        ServiceTemplate(service_type="projection"),
        lambda items: results.append(len(items))))
    room.sim.run(until=30.0)
    assert results == [1]


def test_registration_handle_reflects_recovery():
    room = projector_room(seed=212, registration_lease_s=10.0)
    room.sim.run(until=3.0)
    registrations_before = list(room.adapter_discovery.registrations)
    _cold_restart(room.registry)
    room.sim.run(until=30.0)
    # The client grew fresh registration handles for the re-registered
    # items; the old handles are deactivated.
    assert len(room.adapter_discovery.registrations) > len(registrations_before)
    active = [r for r in room.adapter_discovery.registrations if r.active]
    assert len(active) >= 2
