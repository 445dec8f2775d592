"""Tests for multicast discovery, the client, and remote events
(end to end over the simulated radio)."""

from __future__ import annotations

import pytest

from repro.discovery.client import ServiceDiscoveryClient
from repro.discovery.events import ADDED, EXPIRED, EventMailbox, RemoteEvent
from repro.discovery.protocol import AnnouncingRegistry, RegistryLocator
from repro.discovery.records import (
    ServiceItem,
    ServiceProxy,
    ServiceTemplate,
    new_service_id,
)
from repro.discovery.registry import REGISTRY_PORT, LookupService
from repro.kernel.errors import DiscoveryError
from repro.phys.devices import Device


@pytest.fixture
def deployment(sim, world, medium):
    hub = Device(sim, world, "hub", (20, 12), medium=medium)
    provider = Device(sim, world, "provider", (25, 12), medium=medium)
    consumer = Device(sim, world, "consumer", (15, 12), medium=medium)
    registry = LookupService(sim, hub, "reg", sweep_interval=0.5)
    announcer = AnnouncingRegistry(
        sim, hub, RegistryLocator("reg", "hub", REGISTRY_PORT),
        announce_interval=5.0)
    return hub, provider, consumer, registry, announcer


def _item(sim, provider="provider", **attrs):
    return ServiceItem(new_service_id(sim), "projection",
                       ServiceProxy(provider, 33, "vnc"), attrs)


def test_passive_discovery_from_announcements(sim, deployment):
    _hub, _provider, consumer, _registry, _announcer = deployment
    client = ServiceDiscoveryClient(sim, consumer)
    found = []
    client.discover(lambda loc: found.append(loc.registry_id))
    sim.run(until=1.0)
    assert found == ["reg"]


def test_active_probe_speeds_discovery(sim, deployment):
    _hub, _provider, consumer, _registry, announcer = deployment
    client = ServiceDiscoveryClient(sim, consumer)
    client.discover()
    sim.run(until=0.2)
    # Found well before the first periodic announcement at 5 s would not
    # have been needed (announcer also announces at 0.05 s, so check the
    # recorded discovery time).
    assert client.agent.discovery_times["reg"] < 1.0


def test_register_and_find_end_to_end(sim, deployment):
    _hub, provider, consumer, registry, _announcer = deployment
    item = _item(sim, room="A")
    prov = ServiceDiscoveryClient(sim, provider)
    prov.discover(lambda loc: prov.register(item, 30.0))
    cons = ServiceDiscoveryClient(sim, consumer)
    results = []
    cons.discover()
    sim.schedule(2.0, lambda: cons.find(
        ServiceTemplate(service_type="projection"),
        lambda items: results.append([i.service_id for i in items])))
    sim.run(until=5.0)
    assert results == [[item.service_id]]


def test_find_no_match_returns_empty(sim, deployment):
    _hub, _provider, consumer, _registry, _announcer = deployment
    cons = ServiceDiscoveryClient(sim, consumer)
    results = []
    cons.discover()
    sim.schedule(1.0, lambda: cons.find(ServiceTemplate(service_type="nothing"),
                                        results.append))
    sim.run(until=3.0)
    assert results == [[]]


def test_require_registry_before_discovery_raises(sim, deployment):
    _hub, _provider, consumer, _reg, _ann = deployment
    client = ServiceDiscoveryClient(sim, consumer)
    with pytest.raises(DiscoveryError):
        client.require_registry()


def test_auto_renewal_keeps_registration_alive(sim, deployment):
    _hub, provider, _consumer, registry, _announcer = deployment
    prov = ServiceDiscoveryClient(sim, provider)
    item = _item(sim)
    prov.discover(lambda loc: prov.register(item, 10.0))
    sim.run(until=60.0)
    assert len(registry.items()) == 1
    assert prov.registrations[0].renewals >= 5


def test_registration_without_renewal_expires(sim, deployment):
    _hub, provider, _consumer, registry, _announcer = deployment
    prov = ServiceDiscoveryClient(sim, provider)
    item = _item(sim)
    prov.discover(lambda loc: prov.register(item, 10.0, auto_renew=False))
    sim.run(until=30.0)
    assert registry.items() == []


def test_cancel_registration(sim, deployment):
    _hub, provider, _consumer, registry, _announcer = deployment
    prov = ServiceDiscoveryClient(sim, provider)
    item = _item(sim)
    outcomes = []

    def registered(registration):
        prov.cancel_registration(registration, outcomes.append)

    prov.discover(lambda loc: prov.register(item, 30.0,
                                            on_registered=registered))
    sim.run(until=5.0)
    assert outcomes == [True]
    assert registry.items() == []


def test_subscription_delivers_remote_events(sim, deployment):
    _hub, provider, consumer, _registry, _announcer = deployment
    cons = ServiceDiscoveryClient(sim, consumer)
    events = []
    cons.discover(lambda loc: cons.subscribe(
        ServiceTemplate(service_type="projection"),
        lambda ev: events.append(ev.kind), lease_duration=60.0))
    prov = ServiceDiscoveryClient(sim, provider)
    item = _item(sim)
    sim.schedule(1.0, lambda: prov.register(item, 5.0, auto_renew=False))
    sim.run(until=15.0)
    assert events == [ADDED, EXPIRED]


def test_request_timeout_returns_none(sim, world, medium):
    # A consumer with a locator pointing at a silent address.
    consumer = Device(sim, world, "lonely", (5, 5), medium=medium)
    client = ServiceDiscoveryClient(sim, consumer, request_timeout=0.5)
    ghost = RegistryLocator("ghost", "lonely-hub", REGISTRY_PORT)
    results = []
    from repro.discovery.registry import LookupRequest, new_request_id

    client.request(ghost, LookupRequest(new_request_id(sim), ServiceTemplate()),
                   64, results.append)
    sim.run(until=5.0)
    assert results == [None]
    assert client.timeouts == 1


# ---------------------------------------------------------------------------
# EventMailbox
# ---------------------------------------------------------------------------

def _event(seq, registration=1):
    return RemoteEvent(seq, ADDED, ServiceItem(
        "svc-0001", "t", ServiceProxy("p", 1, "x")), registration)


def test_mailbox_delivers_and_dedupes():
    got = []
    mailbox = EventMailbox(got.append)
    event = _event(1)
    assert mailbox.deliver(event)
    assert not mailbox.deliver(event)
    assert mailbox.delivered == 1 and mailbox.duplicates == 1


def test_mailbox_gap_detection():
    mailbox = EventMailbox(lambda ev: None)
    mailbox.deliver(_event(1))
    mailbox.deliver(_event(5))
    assert mailbox.gaps_detected == 1


def test_mailbox_gap_tracking_per_registration():
    mailbox = EventMailbox(lambda ev: None)
    mailbox.deliver(_event(1, registration=1))
    mailbox.deliver(_event(2, registration=2))
    assert mailbox.gaps_detected == 0
