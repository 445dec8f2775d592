"""Property-based invariants for the lookup service."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.discovery.records import ServiceItem, ServiceProxy, ServiceTemplate, new_service_id
from repro.discovery.registry import LookupService
from repro.env.world import World
from repro.kernel.errors import LeaseError
from repro.kernel.scheduler import Simulator
from repro.phys.devices import Device
from repro.phys.mac import WirelessMedium

operations = st.lists(
    st.tuples(st.sampled_from(["register", "cancel", "advance", "lookup"]),
              st.floats(min_value=1.0, max_value=30.0)),
    min_size=1, max_size=25)


def _registry(seed: int) -> LookupService:
    sim = Simulator(seed=seed, trace=False)
    world = World(50, 50)
    medium = WirelessMedium(sim, world)
    hub = Device(sim, world, "hub", (25, 25), medium=medium)
    return LookupService(sim, hub, "reg", sweep_interval=0.5)


def _item(sim: Simulator) -> ServiceItem:
    return ServiceItem(new_service_id(sim), "svc",
                       ServiceProxy("provider", 9, "p"))


@given(operations, st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_registry_items_always_match_live_leases(ops, seed):
    """Whatever mixture of registrations, cancellations and clock
    advances: the item set and the live registration leases agree
    exactly, and lookups never return a stale item."""
    registry = _registry(seed)
    sim = registry.sim
    leases = []
    for op, value in ops:
        if op == "register":
            leases.append(registry.register(_item(sim), value))
        elif op == "cancel" and leases:
            lease = leases.pop(0)
            try:
                registry.cancel(lease.lease_id)
            except LeaseError:
                pass  # already expired and swept
        elif op == "advance":
            sim.run(until=sim.now + value)
        else:
            found = registry.lookup(ServiceTemplate())
            # Every returned item has a live lease backing it.
            for item in found:
                lease = registry._service_to_lease.get(item.service_id)
                assert lease is not None

        live_resources = {l.resource for l in registry.leases.live()}
        item_ids = {i.service_id for i in registry.items()}
        # After any sweep, items and live leases correspond 1:1 (between
        # expiry and sweep an item may briefly outlive its lease; force a
        # sweep to compare settled state).
        registry.leases.sweep()
        live_resources = {l.resource for l in registry.leases.live()}
        item_ids = {i.service_id for i in registry.items()}
        assert item_ids == live_resources


@given(st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_event_sequences_strictly_increase(count, seed):
    registry = _registry(seed)
    sent = []
    registry.notify(ServiceTemplate(), "listener", 600.0)
    registry._event_tx.send = lambda dst, ev, n, **k: sent.append(ev)
    for _ in range(count):
        registry.register(_item(registry.sim), 60.0)
    sequences = [ev.sequence for ev in sent]
    assert sequences == sorted(sequences)
    assert len(set(sequences)) == len(sequences)
