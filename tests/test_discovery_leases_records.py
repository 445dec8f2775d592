"""Tests for leases and service records."""

from __future__ import annotations

import pytest

from repro.discovery.leases import LeaseTable
from repro.discovery.records import (
    MATCH_ALL,
    ServiceItem,
    ServiceProxy,
    ServiceTemplate,
    new_service_id,
)
from repro.kernel.errors import ConfigurationError, LeaseError
from repro.experiments.workloads import projector_room


# ---------------------------------------------------------------------------
# Leases
# ---------------------------------------------------------------------------

def test_grant_and_remaining(sim):
    table = LeaseTable(sim, max_duration=100.0)
    lease = table.grant("alice", "projector", 30.0)
    assert lease.remaining(sim.now) == pytest.approx(30.0)
    assert not lease.expired(sim.now)
    assert len(table) == 1


def test_duration_clamped_to_max(sim):
    table = LeaseTable(sim, max_duration=50.0)
    lease = table.grant("alice", "r", 500.0)
    assert lease.duration == 50.0


def test_nonpositive_duration_rejected(sim):
    table = LeaseTable(sim)
    with pytest.raises(LeaseError):
        table.grant("alice", "r", 0.0)


def test_expiry_fires_callback(sim):
    expired = []
    table = LeaseTable(sim, on_expired=expired.append, sweep_interval=0.5)
    table.grant("alice", "projector", 5.0)
    sim.run(until=10.0)
    assert len(expired) == 1
    assert expired[0].holder == "alice"
    assert table.expired_count == 1
    assert len(table) == 0


def test_renewal_extends(sim):
    table = LeaseTable(sim, sweep_interval=0.5)
    expired = []
    table.on_expired = expired.append
    lease = table.grant("alice", "r", 5.0)
    # Renew every 2 seconds for 20 seconds: never expires.
    task = sim.every(2.0, lambda: table.renew(lease.lease_id))
    sim.run(until=20.0)
    task.cancel()
    assert expired == []
    sim.run(until=30.0)
    assert len(expired) == 1


def test_renew_unknown_or_expired_raises(sim):
    table = LeaseTable(sim, sweep_interval=0.5)
    with pytest.raises(LeaseError):
        table.renew(999)
    lease = table.grant("a", "r", 1.0)
    sim.run(until=5.0)
    with pytest.raises(LeaseError):
        table.renew(lease.lease_id)


def test_cancel(sim):
    table = LeaseTable(sim)
    lease = table.grant("a", "r", 10.0)
    cancelled = table.cancel(lease.lease_id)
    assert cancelled.cancelled
    assert len(table) == 0
    with pytest.raises(LeaseError):
        table.cancel(lease.lease_id)


def test_holder_of(sim):
    table = LeaseTable(sim, sweep_interval=0.5)
    table.grant("alice", "projector", 5.0)
    assert table.holder_of("projector").holder == "alice"
    assert table.holder_of("other") is None
    sim.run(until=10.0)
    assert table.holder_of("projector") is None


def test_live_listing(sim):
    table = LeaseTable(sim, sweep_interval=10.0)
    table.grant("a", "r1", 2.0)
    table.grant("b", "r2", 50.0)
    sim.run(until=5.0)  # r1 expired but not yet swept
    live = table.live()
    assert [l.holder for l in live] == ["b"]


def test_counters(sim):
    table = LeaseTable(sim, sweep_interval=0.5)
    lease = table.grant("a", "r", 5.0)
    table.renew(lease.lease_id)
    assert table.granted_count == 1
    assert table.renewed_count == 1


def test_stop_halts_sweeping(sim):
    expired = []
    table = LeaseTable(sim, on_expired=expired.append, sweep_interval=0.5)
    table.grant("a", "r", 1.0)
    table.stop()
    sim.run(until=10.0)
    assert expired == []  # nobody sweeps anymore


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def _item(sim, **attrs) -> ServiceItem:
    return ServiceItem(new_service_id(sim), "projection",
                       ServiceProxy("adapter", 21, "vnc"), attrs)


def test_service_ids_unique(sim):
    assert new_service_id(sim) != new_service_id(sim)


def test_rooms_built_in_one_process_mint_equal_service_ids():
    """The counter lives in the simulator: a second room gets the ids
    the first got, whatever ran earlier in the process."""
    def ids(room):
        return (room.smart.projection_service.service_id,
                room.smart.control_service.service_id)

    first = projector_room(seed=1, trace=False, register=False)
    second = projector_room(seed=1, trace=False, register=False)
    assert ids(first) == ids(second)


def test_item_requires_type_and_id():
    with pytest.raises(ConfigurationError):
        ServiceItem("", "t", ServiceProxy("a", 1, "p"))
    with pytest.raises(ConfigurationError):
        ServiceItem("id", "", ServiceProxy("a", 1, "p"))


def test_proxy_validation():
    with pytest.raises(ConfigurationError):
        ServiceProxy("a", -1, "p")
    with pytest.raises(ConfigurationError):
        ServiceProxy("a", 1, "p", code_bytes=-5)


def test_item_wire_bytes_grow_with_attributes_and_code(sim):
    small = _item(sim)
    big = ServiceItem(new_service_id(sim), "projection",
                      ServiceProxy("adapter", 21, "vnc", code_bytes=50000),
                      {"room": "A", "building": "221"})
    assert big.wire_bytes > small.wire_bytes


def test_match_all_template(sim):
    assert MATCH_ALL.matches(_item(sim))


def test_template_type_matching(sim):
    template = ServiceTemplate(service_type="projection")
    assert template.matches(_item(sim))
    assert not template.matches(ServiceItem(
        new_service_id(sim), "printer", ServiceProxy("x", 1, "ipp")))


def test_template_id_matching(sim):
    item = _item(sim)
    assert ServiceTemplate(service_id=item.service_id).matches(item)
    assert not ServiceTemplate(service_id="svc-9999").matches(item)


def test_template_attribute_subset_matching(sim):
    item = _item(sim, room="A", floor=2)
    assert ServiceTemplate(attributes={"room": "A"}).matches(item)
    assert ServiceTemplate(attributes={"room": "A", "floor": 2}).matches(item)
    assert not ServiceTemplate(attributes={"room": "B"}).matches(item)
    assert not ServiceTemplate(attributes={"wing": "N"}).matches(item)


def test_template_combined_fields(sim):
    item = _item(sim, room="A")
    good = ServiceTemplate("projection", item.service_id, {"room": "A"})
    assert good.matches(item)
    assert not ServiceTemplate("projection", item.service_id,
                               {"room": "B"}).matches(item)
