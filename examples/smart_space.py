"""A discovery-rich smart space: many appliances, one lookup service.

The paper's vision is a room full of $10 information appliances that
"automatically discover and use remote services".  This example populates
a smart room with a handful of appliances (printer, display wall, coffee
machine, door sign), lets a visitor's PDA discover them as it walks in on
a random-waypoint path, and shows the middleware healing itself when an
appliance crashes: its registration lease expires, subscribers get the
EXPIRED event, and the desktop-icon state mirrors reality.

Run:  python examples/smart_space.py
"""

from __future__ import annotations

from repro.discovery.client import ServiceDiscoveryClient
from repro.discovery.protocol import AnnouncingRegistry, RegistryLocator
from repro.discovery.records import (
    MATCH_ALL,
    ServiceItem,
    ServiceProxy,
    new_service_id,
)
from repro.discovery.registry import LookupService, REGISTRY_PORT
from repro.env.mobility import RandomWaypoint
from repro.env.world import World
from repro.kernel.scheduler import Simulator
from repro.phys.devices import Device, PDA
from repro.phys.mac import WirelessMedium

APPLIANCES = [
    ("printer", (5.0, 5.0)),
    ("display-wall", (30.0, 5.0)),
    ("coffee-machine", (5.0, 20.0)),
    ("door-sign", (30.0, 20.0)),
]


def main() -> None:
    sim = Simulator(seed=7)
    world = World(40.0, 25.0)
    medium = WirelessMedium(sim, world)

    # The room's infrastructure: hub with lookup service.
    hub = Device(sim, world, "hub", (18.0, 12.0), medium=medium)
    registry = LookupService(sim, hub, "room-registry")
    AnnouncingRegistry(sim, hub,
                       RegistryLocator("room-registry", "hub", REGISTRY_PORT),
                       announce_interval=5.0)

    # Appliances register themselves under 20 s leases.
    providers = {}
    for name, position in APPLIANCES:
        appliance = Device(sim, world, name, position, medium=medium)
        discovery = ServiceDiscoveryClient(sim, appliance)
        item = ServiceItem(new_service_id(sim), name,
                           ServiceProxy(name, 30, name), {"room": "lab-221"})
        discovery.discover(
            lambda loc, d=discovery, it=item: d.register(it, 20.0))
        providers[name] = discovery

    # A visitor's PDA roams in and watches the service population.
    pda = PDA(sim, world, "visitor-pda", (1.0, 1.0), medium)
    RandomWaypoint(sim, world, "visitor-pda", speed_min=0.8,
                   speed_max=1.5, pause=2.0).start()
    pda_discovery = ServiceDiscoveryClient(sim, pda)
    icon_state = {}

    def on_event(event) -> None:
        icon_state[event.item.service_type] = event.kind
        print(f"[t={sim.now:6.1f}s] icon update: "
              f"{event.item.service_type:14s} -> {event.kind}")

    pda_discovery.discover(
        lambda loc: pda_discovery.subscribe(MATCH_ALL, on_event,
                                            lease_duration=120.0))

    def browse() -> None:
        pda_discovery.find(
            MATCH_ALL,
            lambda items: print(f"[t={sim.now:6.1f}s] PDA sees "
                                f"{sorted(i.service_type for i in items)}"))

    sim.schedule(3.0, browse)

    # At t=20 the coffee machine crashes: renewals stop.
    def crash_coffee() -> None:
        print(f"[t={sim.now:6.1f}s] coffee machine crashes (stops renewing)")
        for registration in providers["coffee-machine"].registrations:
            registration.active = False
            if registration._renew_event is not None:
                registration._renew_event.cancel()

    sim.schedule(20.0, crash_coffee)
    sim.schedule(50.0, browse)

    sim.run(until=60.0)

    print(f"\nregistered services at t=60: "
          f"{sorted(i.service_type for i in registry.items())}")
    print(f"PDA icon states: {icon_state}")
    assert icon_state.get("coffee-machine") == "expired"


if __name__ == "__main__":
    main()
