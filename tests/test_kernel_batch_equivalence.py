"""Golden digests: batch-class producers keep their seeded outcomes.

Batch-class timers (MAC backoff/ACK/finish, lease sweeps, discovery and
queueing timers) are plain heap entries: every entry consumes the kernel's
global sequence counter, so a seeded run's interleaving is fixed by the
``(time, priority, seq)`` key alone.  These tests pin that run, byte for
byte, as sha256 digests of the outcome of the three workloads that
exercise the producers hardest: the full projector room with co-channel
interferers, the broadcast-heavy scale room, and a lease storm (sweep +
renewal chains).  The digests were recorded on the struct-of-arrays batch
engine these timers used to run on, so they also pin that retiring it
changed no outcome.  A fourth digest pins E11's dense cells, the one
medium configuration with per-receiver delivery streams and an
interference radius; it was recorded before the medium's receive tables
existed, so it also pins that serving broadcasts from them changed no
outcome.  A fifth digest pins a broadcast room with random-waypoint
movers, the one workload here whose topology changes after set-up; it
was recorded while every move still cleared the link cache and rebuilt
every receive table, so it pins that evicting only movers' links and
re-keying the tables no move touched changed no outcome.

Process-global id counters (frame ids, lease ids, transport message ids,
service-id suffixes) advance in construction order, not execution order,
so absolute values depend on what else the process built first; messages
are digested with those ids normalised away — the same convention as
``test_phys_culling_equivalence``.  ``kernel*`` metrics describe the event
store itself, not the simulation, and are left out.
"""

from __future__ import annotations

import hashlib
import re

from repro.discovery.leases import LeaseTable
from repro.env.mobility import RandomWaypoint
from repro.experiments.cellgrid import cell_layout, cell_rooms
from repro.experiments.workloads import broadcast_room, interferer_field, projector_room
from repro.kernel.scheduler import Simulator

#: Process-global id artifacts scrubbed from trace messages before
#: digesting: frame ids ("#12"), lease/request ids, service-id suffixes.
_ID = re.compile(r"#\d+|\b(?:lease|request) \d+|-\d{4}\b")

#: Span/record data keys carrying those same process-global ids.
_ID_KEYS = {"frame", "lease", "request", "msg"}

PROJECTOR_ROOM_SHA256 = (
    "aefd288d64145e96302fefe2dcc899269bc3c29a17bba670e816d8067757fdf7")
BROADCAST_ROOM_SHA256 = (
    "45c23ac48760bfc2c4f024f05b3108f17cf9895f407588b61c49b5ccc17ea02d")
LEASE_STORM_SHA256 = (
    "7830f1e66c875b265d5665f0ffe22b7caf4bceb4fb8976ce615fd492a086c256")
E11_CELLS_SHA256 = (
    "ed3187ddea6b6133e9facf94862d5fca440bfc46c5b3b9a85daef3b2c05e0150")
MOBILE_ROOM_SHA256 = (
    "72001a1dd9127a240b41880dc4a351454868ae0e17c591534ee1abf0bcfda0d7")


def _digest(outcome) -> str:
    return hashlib.sha256(repr(outcome).encode()).hexdigest()


def _records(sim):
    return [(r.time, r.category, r.source, _ID.sub("<id>", r.message))
            for r in sim.tracer.records]


def _spans(sim):
    return [(s.category, s.source, s.start, s.end, s.status,
             {k: v for k, v in (s.data or {}).items() if k not in _ID_KEYS})
            for s in sim.tracer.spans]


def _metrics(sim):
    """Metrics snapshot minus the kernel's own event-store internals."""
    snap = sim.metrics.snapshot()
    out = {}
    for section, values in snap.items():
        if isinstance(values, dict):
            out[section] = {name: value for name, value in values.items()
                            if not name.startswith("kernel")}
        else:
            out[section] = values
    return out


def _outcome(sim):
    return (sim.now, sim.events_executed, _records(sim), _spans(sim),
            _metrics(sim))


def projector_outcome():
    room = projector_room(seed=3)
    interferer_field(room, 6, frames_per_second=40.0)
    room.sim.run(until=12.0)
    macs = {name: dict(room.medium._macs[name].stats)
            for name in room.medium.stations()}
    return _outcome(room.sim) + (macs,)


def broadcast_outcome():
    room = broadcast_room(60, seed=11)
    room.sim.run(until=6.0)
    return (room.sim.now, room.sim.events_executed, list(room.deliveries))


def e11_cells_outcome():
    """E11's medium configuration: ``per_station_rng`` delivery streams
    and an ``interference_radius_m`` cut, in two dense cells."""
    rooms = cell_rooms(cell_layout(cells=2, stations_per_cell=40, seed=7))
    rooms.sim.run(until=2.0)
    medium = rooms.medium
    return (rooms.sim.now, rooms.sim.events_executed,
            sorted(rooms.deliveries), [dict(mac.stats) for mac in rooms.macs],
            medium.total_deliveries, medium.total_decode_failures)


def mobile_room_outcome():
    """A sparse broadcast room whose first 40 stations walk random
    waypoints.  Build/reuse counters are left out: they count receive
    tables made and served, not outcomes."""
    room = broadcast_room(200, seed=13)
    for mac in room.macs[:40]:
        RandomWaypoint(room.sim, room.world, mac.address).start()
    room.sim.run(until=3.0)
    medium = room.medium
    return (room.sim.now, room.sim.events_executed, sorted(room.deliveries),
            [dict(mac.stats) for mac in room.macs],
            medium.total_deliveries, medium.total_decode_failures)


def lease_storm_outcome():
    """A renewal-chain storm straight on the lease table: grants with a
    handful of standard durations, each renewed at 45% of its duration
    until the horizon, under a fast sweep."""
    sim = Simulator(seed=9)
    table = LeaseTable(sim, sweep_interval=0.5)
    rng = sim.rng("storm")
    durations = [2.0, 3.0, 5.0]
    renewed = [0]

    def chain(lease_id: int, duration: float) -> None:
        lease = table.get(lease_id)
        if lease is None or sim.now + 0.45 * duration > 25.0:
            return
        table.renew(lease_id)
        renewed[0] += 1
        sim.schedule(0.45 * duration, chain, lease_id, duration)

    for i in range(120):
        duration = durations[int(rng.integers(0, len(durations)))]
        lease = table.grant(f"holder-{i}", f"res-{i}", duration)
        sim.schedule(0.45 * duration, chain, lease.lease_id, duration)

    sim.run(until=30.0)
    return (sim.now, sim.events_executed, renewed[0], len(table),
            _records(sim), _metrics(sim))


def test_projector_room_byte_identical():
    assert _digest(projector_outcome()) == PROJECTOR_ROOM_SHA256


def test_broadcast_room_byte_identical():
    assert _digest(broadcast_outcome()) == BROADCAST_ROOM_SHA256


def test_e11_cells_byte_identical():
    assert _digest(e11_cells_outcome()) == E11_CELLS_SHA256


def test_mobile_room_byte_identical():
    assert _digest(mobile_room_outcome()) == MOBILE_ROOM_SHA256


def test_lease_storm_byte_identical():
    assert _digest(lease_storm_outcome()) == LEASE_STORM_SHA256
