"""Property-based invariants for the MAC and medium: frame conservation,
and culled broadcast delivery matching the exhaustive reference scan."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env.mobility import RandomWaypoint
from repro.env.radio import PropagationModel
from repro.env.world import World
from repro.kernel.scheduler import Simulator
from repro.net.addresses import BROADCAST
from repro.net.frames import Frame
from repro.phys.mac import CsmaMac, WirelessMedium

topologies = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=80.0),
              st.floats(min_value=0.0, max_value=40.0)),
    min_size=2, max_size=5, unique=True)

traffic = st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                             st.integers(min_value=0, max_value=4),
                             st.integers(min_value=1, max_value=1400)),
                   min_size=1, max_size=25)


@given(topologies, traffic, st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_mac_conservation_invariants(positions, sends, seed):
    """For any topology and traffic pattern:

    * successes + retry drops + still-queued/in-flight == accepted frames;
    * total receiver deliveries never exceed attempted transmissions;
    * busy time is non-negative and bounded by elapsed time x stations.
    """
    sim = Simulator(seed=seed, trace=False)
    world = World(100, 50)
    medium = WirelessMedium(sim, world)
    stations = []
    for i, xy in enumerate(positions):
        world.place(f"s{i}", xy)
        stations.append(CsmaMac(sim, medium, f"s{i}", queue_limit=256))
    accepted = 0
    for src_i, dst_i, size in sends:
        src = stations[src_i % len(stations)]
        dst = stations[dst_i % len(stations)]
        if src is dst:
            continue
        if src.send(Frame(src.address, dst.address, None, size)):
            accepted += 1
    horizon = 30.0
    sim.run(until=horizon)

    successes = sum(s.stats["tx_success"] for s in stations)
    drops = sum(s.stats["tx_retry_drops"] for s in stations)
    leftover = sum(s.queue_depth() for s in stations) + \
        sum(1 for s in stations if s._in_flight is not None)
    assert successes + drops + leftover == accepted

    rx_total = sum(s.stats["rx_frames"] for s in stations)
    assert rx_total <= medium.total_transmissions
    assert medium.total_deliveries >= successes

    for s in stations:
        assert 0.0 <= s.stats["busy_time"] <= horizon + 1.0


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=20))
@settings(max_examples=20, deadline=None)
def test_broadcast_never_retries(seed, count):
    sim = Simulator(seed=seed, trace=False)
    world = World(50, 50)
    medium = WirelessMedium(sim, world)
    world.place("a", (10, 10))
    world.place("b", (12, 10))
    a = CsmaMac(sim, medium, "a", queue_limit=64)
    CsmaMac(sim, medium, "b")

    accepted = sum(
        1 for _ in range(count)
        if a.send(Frame("a", BROADCAST, None, 100, kind="mgmt")))
    sim.run(until=20.0)
    # Every accepted broadcast counts as one success, none are retried.
    assert a.stats["tx_success"] == accepted
    assert a.stats["tx_retry_drops"] == 0


# ---------------------------------------------------------------------------
# Culled vs exhaustive broadcast delivery on generated rooms
# ---------------------------------------------------------------------------

#: Broadcast horizon of a generated room (s).
ROOM_HORIZON_S = 1.0
#: Broadcast period of every station in a generated room (s).
SEND_PERIOD_S = 0.05


@st.composite
def broadcast_rooms(draw):
    """A small broadcast room with everything the receive tables key on
    or branch over: mixed channels (partial and zero overlap), per-station
    powers, fading, per-station streams, an interference radius,
    receivers switched off and on mid-run, one mid-run power change,
    frames long and unsensed enough to overlap many others (the vectorised
    SINR sum), and moving stations: scripted moves, some timed to land
    while the mover's own frame is in the air, and fast random-waypoint
    walkers.  The steeper path-loss exponent makes the culling radius
    smaller than the room, so the grid query and the move check's radius
    test both cut."""
    count = draw(st.integers(min_value=8, max_value=30))
    side = draw(st.floats(min_value=20.0, max_value=300.0))
    coordinate = st.floats(min_value=0.0, max_value=side)
    stations = draw(st.lists(
        st.tuples(coordinate, coordinate, st.sampled_from((1, 3, 6, 11)),
                  st.integers(min_value=0, max_value=15),
                  st.floats(min_value=0.0, max_value=0.05)),
        min_size=count, max_size=count))
    instant = st.floats(min_value=0.0, max_value=ROOM_HORIZON_S)
    index = st.integers(min_value=0, max_value=count - 1)
    return {
        "seed": draw(st.integers(min_value=0, max_value=2**31 - 1)),
        "side": side,
        "stations": stations,
        "exponent": draw(st.sampled_from((3.0, 4.5))),
        "payload_bytes": draw(st.sampled_from((66, 500, 1400))),
        # A deaf carrier sense lets many frames overlap one another.
        "cs_threshold_dbm": draw(st.sampled_from((-82.0, -50.0))),
        "trace": draw(st.booleans()),
        "fast_fading": draw(st.booleans()),
        "per_station_rng": draw(st.booleans()),
        "interference_radius_m": draw(st.one_of(
            st.none(), st.floats(min_value=10.0, max_value=400.0))),
        "disabled": draw(st.lists(st.tuples(index, instant, instant),
                                  max_size=4)),
        "power_change": (draw(index), draw(instant),
                         draw(st.integers(min_value=0, max_value=15))),
        # (station, instant, x, y, in flight): an in-flight move lands
        # 0.3 ms after the station's next send, inside its frame's airtime
        # unless carrier sense deferred it.
        "moves": draw(st.lists(st.tuples(index, instant, coordinate,
                                         coordinate, st.booleans()),
                               max_size=12)),
        "walkers": draw(st.lists(
            st.tuples(index, st.floats(min_value=0.02, max_value=0.2)),
            max_size=5, unique_by=lambda walker: walker[0])),
    }


def run_broadcast_room(room, culling: bool):
    sim = Simulator(seed=room["seed"], trace=room["trace"])
    world = World(room["side"], room["side"])
    propagation = PropagationModel(exponent=room["exponent"],
                                   shadowing_sigma_db=4.0,
                                   rng=sim.rng("radio.shadowing"))
    medium = WirelessMedium(
        sim, world, propagation=propagation,
        fast_fading=room["fast_fading"], culling=culling,
        per_station_rng=room["per_station_rng"],
        interference_radius_m=room["interference_radius_m"])
    deliveries = []
    macs = []
    for i, (x, y, channel, power, start) in enumerate(room["stations"]):
        name = f"p{i}"
        world.place(name, (x, y))
        mac = CsmaMac(sim, medium, name, channel=channel,
                      tx_power_dbm=power,
                      cs_threshold_dbm=room["cs_threshold_dbm"])
        mac.on_receive = (lambda frame, rx=name:
                          deliveries.append((sim.now, frame.src, rx)))
        macs.append(mac)
        sim.every(SEND_PERIOD_S, lambda m=mac: m.send(
            Frame(m.address, BROADCAST, payload_bytes=room["payload_bytes"],
                  frame_id=sim.next_seq("frame"))),
            start=start)

    def set_disabled(mac, value):
        mac.receiving_disabled = value

    for i, off, on in room["disabled"]:
        sim.schedule(min(off, on), set_disabled, macs[i], True)
        sim.schedule(max(off, on), set_disabled, macs[i], False)
    i, at, power = room["power_change"]
    sim.schedule(at, setattr, macs[i], "tx_power_dbm", float(power))
    for i, at, x, y, in_flight in room["moves"]:
        if in_flight:
            start = room["stations"][i][4]
            at = start + SEND_PERIOD_S * math.ceil(
                max(at - start, 0.0) / SEND_PERIOD_S) + 0.0003
        sim.schedule(at, world.move, macs[i].address, (x, y))
    for i, interval in room["walkers"]:
        RandomWaypoint(sim, world, macs[i].address, speed_min=30.0,
                       speed_max=150.0, pause=0.0,
                       update_interval=interval).start()
    sim.run(until=ROOM_HORIZON_S)
    if culling:
        assert_caches_current(medium)
    records = [(r.time, r.category, r.source, r.message, r.data)
               for r in sim.tracer.records]
    return (sorted(deliveries), [dict(mac.stats) for mac in macs],
            sim.events_executed, medium.total_deliveries,
            medium.total_decode_failures, records)


def assert_caches_current(medium):
    """Every receive table the run left, brought up to date, equals a
    fresh grid build, and every cached link equals a fresh evaluation."""
    served = {address: medium._receive_table(medium._macs[address])
              for address in list(medium._tables)}
    medium._tables.clear()
    for address, table in served.items():
        fresh = medium._receive_table(medium._macs[address])
        assert fresh.macs == table.macs
        assert fresh.signals == table.signals
    prop = medium.propagation
    world = medium.world
    cache = medium.link_cache
    cache.terms(*list(medium._macs)[:2])  # catch up with the last moves
    for a, row in cache._links.items():
        for b, terms in row.items():
            assert terms == (
                prop.path_loss_scalar_db(world.distance_between(a, b)),
                prop.shadowing_db(a, b))


@given(broadcast_rooms())
@settings(max_examples=60, deadline=None)
def test_culled_broadcast_matches_exhaustive_scan(room):
    """The receive tables serve the culled broadcast fan-out; the
    exhaustive scan decodes every receiver through ``_decode``.  Seeded
    outcomes must not tell them apart, and after the culled run every
    re-keyed table and cached link must equal a fresh one."""
    assert (run_broadcast_room(room, culling=True)
            == run_broadcast_room(room, culling=False))


def test_power_change_in_flight_decodes_per_receiver():
    """A sender whose power changes while its broadcast is in the air has
    a receive table for the new power; that frame falls back to
    ``_decode`` per receiver and still matches the exhaustive scan."""
    def run(culling: bool):
        sim = Simulator(seed=5, trace=False)
        world = World(60.0, 20.0)
        medium = WirelessMedium(sim, world, culling=culling)
        decodes = []
        reference_decode = medium._decode
        medium._decode = lambda tx, rx: (decodes.append(rx.address)
                                         or reference_decode(tx, rx))
        deliveries = []
        macs = []
        for i, x in enumerate((5.0, 15.0, 30.0, 55.0)):
            name = f"q{i}"
            world.place(name, (x, 10.0))
            mac = CsmaMac(sim, medium, name, tx_power_dbm=15.0)
            mac.on_receive = (lambda frame, rx=name:
                              deliveries.append((sim.now, frame.src, rx)))
            macs.append(mac)
        sender = macs[0]
        sim.schedule(0.1, sender.send,
                     Frame(sender.address, BROADCAST, payload_bytes=66))
        sim.schedule(0.5, sender.send,
                     Frame(sender.address, BROADCAST, payload_bytes=66))
        # Transmission starts one DIFS after 0.1 s and lasts ~1 ms.
        sim.schedule(0.1002, setattr, sender, "tx_power_dbm", 0.0)
        sim.run(until=1.0)
        return (sorted(deliveries), [dict(mac.stats) for mac in macs],
                sim.events_executed, medium.total_deliveries,
                medium.total_decode_failures), decodes

    culled, culled_decodes = run(True)
    exhaustive, _ = run(False)
    assert culled == exhaustive
    # Only the in-flight frame took the fallback; the second broadcast,
    # sent at the new power, came from the rebuilt table.
    assert culled_decodes == ["q1", "q2", "q3"]
    assert {rx for _, _, rx in culled[0]} >= {"q1", "q2"}


def test_retuned_transmitter_gets_no_draw_on_an_interference_free_frame():
    """A station that retunes while its own frame is in the air is still
    transmitting.  A frame on its new channel that overlaps only that
    (now zero-overlap) transmission is served from the FER memo, and the
    half-duplex rule must still keep the station from decoding it."""
    def run(culling: bool):
        sim = Simulator(seed=8, trace=False)
        world = World(40.0, 20.0)
        medium = WirelessMedium(sim, world, culling=culling)
        deliveries = []
        macs = {}
        for name, x, channel in (("a", 5.0, 1), ("b", 10.0, 6),
                                 ("c", 15.0, 1)):
            world.place(name, (x, 10.0))
            macs[name] = CsmaMac(sim, medium, name, channel=channel)
            macs[name].on_receive = (lambda frame, rx=name:
                                     deliveries.append((frame.src, rx)))
        # b's 1400-byte frame is on the air for ~11 ms from 0.10005 s.
        sim.schedule(0.1, macs["b"].send,
                     Frame("b", BROADCAST, payload_bytes=1400))
        sim.schedule(0.101, setattr, macs["b"], "channel", 1)
        sim.schedule(0.102, macs["a"].send,
                     Frame("a", BROADCAST, payload_bytes=66))
        sim.run(until=0.5)
        return (deliveries, [dict(mac.stats) for mac in macs.values()],
                sim.events_executed, medium.total_deliveries,
                medium.total_decode_failures)

    culled = run(True)
    assert culled == run(False)
    assert ("a", "c") in culled[0]
    assert ("a", "b") not in culled[0]


def test_fer_memo_keys_on_frame_size_and_traces_losses():
    """One sender alternates short and long broadcasts to receivers near
    the decode floor, where the FER depends on the frame size.  Every
    frame is interference-free, so all of them are served from the FER
    memo; deliveries and the ``mac.loss`` records (SINR included) must
    match the exhaustive scan's ``_decode``."""
    def run(culling: bool):
        sim = Simulator(seed=12, trace=True)
        world = World(300.0, 20.0)
        medium = WirelessMedium(
            sim, world, culling=culling,
            propagation=PropagationModel(shadowing_sigma_db=0.0))
        deliveries = []
        macs = []
        # At 15 dBm the receivers 220-252 m away sit where a 66-byte
        # frame's FER is 3-54% and a 1400-byte frame's 39-100%.
        for i, x in enumerate((5.0, 30.0, 225.0, 241.0, 257.0)):
            name = f"m{i}"
            world.place(name, (x, 10.0))
            mac = CsmaMac(sim, medium, name)
            mac.on_receive = (lambda frame, rx=name:
                              deliveries.append((sim.now, frame.src, rx)))
            macs.append(mac)
        sender = macs[0]
        for k in range(40):
            sim.schedule(0.02 * k, sender.send,
                         Frame(sender.address, BROADCAST,
                               payload_bytes=66 if k % 2 == 0 else 1400,
                               frame_id=sim.next_seq("frame")))
        sim.run(until=1.0)
        records = [(r.time, r.category, r.source, r.message, r.data)
                   for r in sim.tracer.records]
        return (sorted(deliveries), [dict(mac.stats) for mac in macs],
                medium.total_deliveries, medium.total_decode_failures,
                records)

    culled = run(True)
    assert culled == run(False)
    assert any(record[1] == "mac.loss" for record in culled[4])
