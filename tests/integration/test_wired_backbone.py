"""Integration: connecting the wireless cell to the traditional wired
network through an access-point bridge — the Aroma project's first
research area."""

from __future__ import annotations

import pytest

from repro.discovery.client import ServiceDiscoveryClient
from repro.discovery.protocol import AnnouncingRegistry, RegistryLocator
from repro.discovery.records import ServiceTemplate
from repro.discovery.registry import REGISTRY_PORT, LookupService
from repro.env.world import World
from repro.kernel.scheduler import Simulator
from repro.net.bridge import Bridge
from repro.net.link import WiredLink
from repro.net.multicast import MulticastService
from repro.net.stack import NetworkStack
from repro.net.transport import ReliableEndpoint
from repro.phys.devices import Device, Laptop
from repro.phys.mac import WirelessMedium


class _WiredHost:
    """A minimal wired device compatible with LookupService/clients."""

    def __init__(self, sim, port):
        self.sim = sim
        self.name = port.address
        self.stack = NetworkStack(sim, port)
        self.multicast = MulticastService(sim, self.stack)

    def reliable(self, port_number, on_message=None, **kwargs):
        return ReliableEndpoint(self.sim, self.stack, port_number,
                                on_message, **kwargs)


@pytest.fixture
def backbone():
    """Wireless cell + AP bridge + wired server hosting the registry."""
    sim = Simulator(seed=77)
    world = World(60, 30)
    medium = WirelessMedium(sim, world)

    # The access point: one promiscuous NIC + one wired port.
    ap = Device(sim, world, "ap", (30, 15), medium=medium)
    ap.nic.mac.promiscuous = True
    wire = WiredLink(sim, "server", "ap-wired")
    bridge = Bridge(sim, "ap-bridge")
    # Take the raw interfaces (bridge owns their receive slots).
    bridge.attach(ap.nic)
    bridge.attach(wire.port_b)

    server = _WiredHost(sim, wire.port_a)
    registry = LookupService(sim, server, "backbone-registry")
    announcer = AnnouncingRegistry(
        sim, server,
        RegistryLocator("backbone-registry", "server", REGISTRY_PORT),
        announce_interval=3.0)

    laptop = Laptop(sim, world, "laptop", (10, 10), medium)
    return sim, world, medium, bridge, server, registry, laptop


def test_wireless_client_discovers_wired_registry(backbone):
    sim, _w, _m, bridge, _server, _registry, laptop = backbone
    client = ServiceDiscoveryClient(sim, laptop)
    found = []
    client.discover(lambda loc: found.append(loc.registry_id))
    sim.run(until=8.0)
    assert found == ["backbone-registry"]
    # The announcement crossed the bridge from wired to wireless.
    assert bridge.flooded >= 1


def test_wireless_client_registers_and_looks_up_across_bridge(backbone):
    sim, world, medium, _bridge, _server, registry, laptop = backbone
    from repro.discovery.records import ServiceItem, ServiceProxy, new_service_id

    provider = Device(sim, world, "gadget", (20, 20), medium=medium)
    provider_client = ServiceDiscoveryClient(sim, provider)
    item = ServiceItem(new_service_id(), "badge-service",
                       ServiceProxy("gadget", 50, "badge"))
    provider_client.discover(lambda loc: provider_client.register(item, 30.0))

    consumer = ServiceDiscoveryClient(sim, laptop)
    results = []
    consumer.discover()
    sim.schedule(5.0, lambda: consumer.find(
        ServiceTemplate(service_type="badge-service"),
        lambda items: results.append([i.service_id for i in items])))
    sim.run(until=10.0)
    assert results == [[item.service_id]]
    assert len(registry.items()) == 1


def test_bridge_learns_both_sides(backbone):
    sim, _w, _m, bridge, _server, _registry, laptop = backbone
    client = ServiceDiscoveryClient(sim, laptop)
    client.discover()
    sim.run(until=8.0)
    learned = bridge.learned()
    assert "server" in learned   # from the wired side
    assert "laptop" in learned   # from the wireless side


def test_promiscuous_overhearing_required():
    """Without promiscuous mode at the AP, a wireless unicast to a wired
    host dies at the MAC — demonstrating why the flag exists."""
    sim = Simulator(seed=78)
    world = World(60, 30)
    medium = WirelessMedium(sim, world)
    ap = Device(sim, world, "ap", (30, 15), medium=medium)  # NOT promiscuous
    wire = WiredLink(sim, "server", "ap-wired")
    bridge = Bridge(sim)
    bridge.attach(ap.nic)
    bridge.attach(wire.port_b)
    got = []
    server_stack = NetworkStack(sim, wire.port_a)
    server_stack.bind(9, got.append)

    laptop = Laptop(sim, world, "laptop", (10, 10), medium)
    laptop.stack.send("server", "hello", 50, port=9)
    sim.run(until=5.0)
    assert got == []  # the AP never heard the unicast

    # Flip promiscuous on and retry: the frame crosses.
    ap.nic.mac.promiscuous = True
    laptop.stack.send("server", "hello2", 50, port=9)
    sim.run(until=10.0)
    assert [f.payload for f in got] == ["hello2"]
