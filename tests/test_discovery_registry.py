"""Tests for the lookup service (local API and expiry semantics)."""

from __future__ import annotations

import pytest

from repro.discovery.events import ADDED, EXPIRED, REMOVED
from repro.discovery.records import (
    ServiceItem,
    ServiceProxy,
    ServiceTemplate,
    new_service_id,
)
from repro.discovery.registry import LookupService
from repro.kernel.errors import LeaseError
from repro.phys.devices import Device


@pytest.fixture
def hub(sim, world, medium):
    return Device(sim, world, "hub", (10, 10), medium=medium)


@pytest.fixture
def registry(sim, hub):
    return LookupService(sim, hub, "reg", sweep_interval=0.5)


def _item(sim, provider="adapter", service_type="projection", **attrs):
    return ServiceItem(new_service_id(sim), service_type,
                       ServiceProxy(provider, 21, "vnc"), attrs)


def test_register_and_lookup(sim, registry):
    item = _item(sim, room="A")
    lease = registry.register(item, 30.0)
    assert lease.resource == item.service_id
    found = registry.lookup(ServiceTemplate(service_type="projection"))
    assert [i.service_id for i in found] == [item.service_id]


def test_lookup_respects_template(sim, registry):
    registry.register(_item(sim, room="A"), 30.0)
    registry.register(_item(sim, service_type="printer"), 30.0)
    assert len(registry.lookup(ServiceTemplate())) == 2
    assert len(registry.lookup(ServiceTemplate(service_type="printer"))) == 1
    assert len(registry.lookup(ServiceTemplate(attributes={"room": "A"}))) == 1


def test_lookup_bounded_by_max_matches(sim, registry):
    for _ in range(10):
        registry.register(_item(sim), 30.0)
    assert len(registry.lookup(ServiceTemplate(), max_matches=3)) == 3


def test_reregistration_replaces(sim, registry):
    item = _item(sim)
    first = registry.register(item, 30.0)
    second = registry.register(item, 30.0)
    assert second.lease_id != first.lease_id
    assert len(registry.items()) == 1


def test_cancel_removes_and_notifies(sim, registry, hub):
    events = []
    registry.notify(ServiceTemplate(), "listener", 60.0)
    # Listen locally by monkeypatching _notify wiring: easier to observe
    # through the subscription list, so intercept the event tx.
    sent = []
    registry._event_tx.send = lambda dst, ev, n, **k: sent.append((dst, ev))
    item = _item(sim)
    lease = registry.register(item, 30.0)
    registry.cancel(lease.lease_id)
    assert registry.items() == []
    kinds = [ev.kind for _dst, ev in sent]
    assert kinds == [ADDED, REMOVED]


def test_cancel_unknown_lease_raises(sim, registry):
    with pytest.raises(LeaseError):
        registry.cancel(424242)


def test_registration_expiry_emits_event_and_issue(sim, registry):
    sent = []
    registry.notify(ServiceTemplate(), "listener", 600.0)
    registry._event_tx.send = lambda dst, ev, n, **k: sent.append(ev)
    registry.register(_item(sim), 2.0)
    sim.run(until=10.0)
    kinds = [ev.kind for ev in sent]
    assert kinds == [ADDED, EXPIRED]
    assert registry.items() == []
    assert len(sim.tracer.select("issue.discovery")) == 1


def test_notify_template_filtering(sim, registry):
    sent = []
    registry.notify(ServiceTemplate(service_type="printer"), "l", 600.0)
    registry._event_tx.send = lambda dst, ev, n, **k: sent.append(ev)
    registry.register(_item(sim, service_type="projection"), 30.0)
    assert sent == []
    registry.register(_item(sim, service_type="printer"), 30.0)
    assert len(sent) == 1


def test_subscription_expiry_stops_events(sim, registry):
    sent = []
    registry.notify(ServiceTemplate(), "l", 1.0)  # 1 s subscription
    registry._event_tx.send = lambda dst, ev, n, **k: sent.append(ev)
    sim.run(until=5.0)  # subscription swept
    registry.register(_item(sim), 30.0)
    assert sent == []


def test_renew_routes_to_subscription_table(sim, registry):
    _rid, lease = registry.notify(ServiceTemplate(), "l", 10.0)
    renewed = registry.renew(lease.lease_id)
    assert renewed.lease_id == lease.lease_id


def test_cancel_routes_to_subscription_table(sim, registry):
    rid, lease = registry.notify(ServiceTemplate(), "l", 10.0)
    registry.cancel(lease.lease_id)
    assert rid not in registry._subscriptions


def test_event_sequence_numbers_increase(sim, registry):
    sent = []
    registry.notify(ServiceTemplate(), "l", 600.0)
    registry._event_tx.send = lambda dst, ev, n, **k: sent.append(ev)
    registry.register(_item(sim), 30.0)
    registry.register(_item(sim), 30.0)
    assert sent[1].sequence > sent[0].sequence
