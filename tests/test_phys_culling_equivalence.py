"""Culled vs exhaustive equivalence: the fast path may only be faster.

The audibility-culling fast path must be *outcome-invisible*: both modes
apply the identical audibility predicate before any RNG draw, so seeded
runs produce byte-identical delivery logs, MAC statistics and event
counts.  These tests pin that across three scenario families — the
projector room with E2-style interferers, a broadcast-heavy flat
population, and a mobile population whose movers cross grid cells —
plus the medium's station list and promiscuous tuple.
"""

from __future__ import annotations

import numpy as np

from repro.env.mobility import RandomWaypoint
from repro.env.radio import PropagationModel
from repro.env.world import World
from repro.experiments.workloads import (
    broadcast_room,
    interferer_field,
    projector_room,
)
from repro.kernel.scheduler import Simulator
from repro.phys.mac import CsmaMac, WirelessMedium


def mac_outcomes(medium: WirelessMedium):
    """Per-station statistics, keyed by address (culling counters excluded:
    they measure the *mechanism*, which legitimately differs by mode)."""
    return {address: dict(mac.stats)
            for address, mac in medium._macs.items()}


# ---------------------------------------------------------------------------
# Scenario 1: the projector room with co-channel interferers (E2 shape)
# ---------------------------------------------------------------------------

def run_interference_room(culling: bool):
    room = projector_room(seed=11, trace=False, culling=culling)
    interferer_field(room, 6, frames_per_second=25.0, frame_bytes=800)
    room.sim.run(until=6.0)
    return room


def test_projector_room_with_interferers_identical():
    culled = run_interference_room(True)
    exhaustive = run_interference_room(False)
    assert culled.sim.events_executed == exhaustive.sim.events_executed
    assert mac_outcomes(culled.medium) == mac_outcomes(exhaustive.medium)
    # The discovery workflow reached the same state too.
    assert (len(culled.registry.items())
            == len(exhaustive.registry.items()))


# ---------------------------------------------------------------------------
# Scenario 2: broadcast-heavy flat population (the benchmark workload)
# ---------------------------------------------------------------------------

def run_broadcast(culling: bool, stations: int = 150):
    room = broadcast_room(stations, culling=culling)
    room.sim.run(until=2.0)
    return room


def test_broadcast_population_identical():
    # 1000 stations is the room bench/'s broadcast_static workload times;
    # its exhaustive twin takes a few seconds.
    for stations in (150, 1000):
        culled = run_broadcast(True, stations)
        exhaustive = run_broadcast(False, stations)
        # Delivery logs compare (time, src, rx) — frame ids come from a
        # global counter and are construction-order artefacts, not
        # outcomes.
        assert sorted(culled.deliveries) == sorted(exhaustive.deliveries)
        assert culled.sim.events_executed == exhaustive.sim.events_executed
        assert mac_outcomes(culled.medium) == mac_outcomes(exhaustive.medium)
        # And culling actually culled — otherwise this proves nothing.
        stats = culled.medium.culling_stats()
        assert stats["enabled"] is True
        assert stats["culled"] > 0
        assert stats["cull_rate"] > 0.5
        assert exhaustive.medium.culling_stats()["enabled"] is False


def test_broadcast_population_with_fading_identical():
    """Rayleigh fading draws from the shared decode RNG; the 30 dB culling
    margin must keep the draw sequence identical in both modes."""
    def build(culling: bool):
        sim = Simulator(seed=23, trace=False)
        world = World(600.0, 600.0)
        propagation = PropagationModel(exponent=3.5, shadowing_sigma_db=3.0,
                                       rng=sim.rng("radio.shadowing"))
        medium = WirelessMedium(sim, world, propagation=propagation,
                                fast_fading=True, culling=culling)
        rng = sim.rng("fade.placement")
        deliveries = []
        for i in range(60):
            name = f"f{i}"
            world.place(name, (rng.uniform(0, 600), rng.uniform(0, 600)))
            mac = CsmaMac(sim, medium, name, channel=1, tx_power_dbm=2.0)
            mac.on_receive = (lambda frame, rx=name:
                              deliveries.append((sim.now, frame.src, rx)))
            from repro.net.addresses import BROADCAST
            from repro.net.frames import Frame
            sim.every(0.5, lambda m=mac: m.send(
                Frame(m.address, BROADCAST, payload_bytes=120)),
                start=float(rng.uniform(0, 0.5)))
        sim.run(until=3.0)
        return deliveries, mac_outcomes(medium), sim.events_executed

    culled = build(True)
    exhaustive = build(False)
    assert sorted(culled[0]) == sorted(exhaustive[0])
    assert culled[1] == exhaustive[1]
    assert culled[2] == exhaustive[2]


# ---------------------------------------------------------------------------
# Scenario 3: mobility — movers cross grid cells, the grid must track them
# ---------------------------------------------------------------------------

def run_mobile(culling: bool):
    """The mobile room after 4 s, and the farthest any mover got from
    where it started (m)."""
    room = broadcast_room(80, culling=culling, width=800.0, height=800.0)
    world = room.world
    movers = [RandomWaypoint(room.sim, world, mac.address,
                             speed_min=20.0, speed_max=60.0, pause=0.0,
                             update_interval=0.25).start()
              for mac in room.macs[:20]]
    starts = [world.position_of(m.name) for m in movers]
    room.sim.run(until=4.0)
    farthest = max(float(np.hypot(*(world.position_of(m.name) - start)))
                   for m, start in zip(movers, starts))
    return room, farthest


def test_mobile_population_identical():
    culled, farthest = run_mobile(True)
    exhaustive, _ = run_mobile(False)
    # Fast movers at 60 m/s cover up to 240 m: at least one must end more
    # than a grid cell from its start, so the grid had to track it.
    assert farthest > culled.medium.culling_stats()["grid"]["cell_m"]
    assert sorted(culled.deliveries) == sorted(exhaustive.deliveries)
    assert culled.sim.events_executed == exhaustive.sim.events_executed
    assert mac_outcomes(culled.medium) == mac_outcomes(exhaustive.medium)
    # Movement forced grid rebuilds (epoch-keyed invalidation worked).
    assert culled.medium.culling_stats()["grid"]["rebuilds"] > 1


# ---------------------------------------------------------------------------
# Audible sets and the medium's station/partition caches
# ---------------------------------------------------------------------------

def test_audible_set_matches_inline_predicate():
    # A non-zero power, so ``p - (loss + shadow)`` and ``p - loss - shadow``
    # can round differently and the exact signal check below means something.
    room = broadcast_room(100, culling=True, tx_power_dbm=3.7)
    room.sim.run(until=0.5)  # populate caches
    medium = room.medium
    for sender in room.macs:
        table = medium._receive_table(sender)
        expected = [mac for mac in medium._macs.values()
                    if mac is not sender
                    and medium._audible_to(sender, mac)]
        assert list(table.macs) == expected  # attach order
        assert table.names == {mac.address for mac in expected}
        assert table.tx_power == sender.tx_power_dbm
        # Each stored signal is the link cache's received power, exactly.
        assert table.signals == tuple(
            medium.link_cache.rx_power_dbm(sender.tx_power_dbm,
                                           sender.address, mac.address)
            for mac in expected)


def test_stations_cache_invalidated_by_attach(sim, world):
    medium = WirelessMedium(sim, world)
    world.place("a", (1.0, 1.0))
    CsmaMac(sim, medium, "a", channel=6)
    assert medium.stations() == ["a"]
    world.place("b", (2.0, 2.0))
    CsmaMac(sim, medium, "b", channel=11)
    assert medium.stations() == ["a", "b"]


def test_partition_tracks_retune_and_promiscuous(sim, world):
    medium = WirelessMedium(sim, world)
    world.place("a", (1.0, 1.0))
    world.place("b", (2.0, 2.0))
    a = CsmaMac(sim, medium, "a", channel=6)
    b = CsmaMac(sim, medium, "b", channel=6)
    assert medium._promiscuous_macs() == ()

    a.promiscuous = True
    assert medium._promiscuous_macs() == (a,)
    b.promiscuous = True
    b.channel = 11  # a retune keeps a station promiscuous
    assert medium._promiscuous_macs() == (a, b)  # attach order
    assert medium._promiscuous_macs() is medium._promiscuous_macs()
    a.promiscuous = False
    assert medium._promiscuous_macs() == (b,)


def test_audible_cache_reused_until_topology_moves():
    room = broadcast_room(60, culling=True)
    medium = room.medium
    sender = room.macs[0]
    medium._receive_table(sender)
    builds_before = medium.culling_stats()["set_builds"]
    medium._receive_table(sender)
    stats = medium.culling_stats()
    assert stats["set_builds"] == builds_before  # reused
    assert stats["set_reuses"] >= 1

    room.world.move(sender.address, (0.0, 0.0))
    medium._receive_table(sender)
    assert medium.culling_stats()["set_builds"] == builds_before + 1


def test_table_rekeyed_when_only_distant_stations_move():
    """A move outside a sender's radius bumps the topology epoch but
    cannot change its table: the same table is re-keyed, without a grid
    query or a rebuild."""
    room = broadcast_room(200, culling=True)
    medium, world = room.medium, room.world
    sender = max(room.macs, key=lambda m: len(medium._receive_table(m).macs))
    table = medium._receive_table(sender)
    assert table.macs and table.radius < world.diagonal_m()
    x, y = world.position_of(sender.address)
    far_corner = (0.0 if x > world.width / 2 else world.width,
                  0.0 if y > world.height / 2 else world.height)
    bystander = next(m for m in room.macs
                     if m is not sender and m not in table.macs)
    world.move(bystander.address, far_corner)
    assert world.distance_between(sender.address,
                                  bystander.address) > table.radius
    before = medium.culling_stats()
    assert medium._receive_table(sender) is table
    after = medium.culling_stats()
    assert table.key[0] == world.epoch
    assert after["set_reuses"] == before["set_reuses"] + 1
    assert after["set_builds"] == before["set_builds"]
    assert after["grid"]["queries"] == before["grid"]["queries"]


def test_exhaustive_mode_never_builds_sets():
    room = broadcast_room(60, culling=False)
    room.sim.run(until=1.0)
    stats = room.medium.culling_stats()
    assert stats["set_builds"] == 0
    assert stats["set_reuses"] == 0


def test_small_room_culls_nothing():
    """In the paper's 40x25 m room every station hears every other; the
    predicate passes for all pairs and culling is a no-op."""
    room = projector_room(seed=3, trace=False)
    interferer_field(room, 4)
    room.sim.run(until=3.0)
    stats = room.medium.culling_stats()
    assert stats["culled"] == 0
